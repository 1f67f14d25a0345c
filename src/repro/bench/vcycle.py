"""End-to-end V-cycle benchmark: ``python -m repro.bench vcycle``.

Where does a whole ``decompose()`` call spend its time — coarsening
(matching + coarse build), initial bisection, FM refinement up the
V-cycle, K-way boundary refinement — and which route did matching
take (see :mod:`repro.partitioner.kernels`)?

Every run partitions into the paper's K=64.  Four instances cover the
regimes the structural routes separate:

* ``finegrain-ken-11`` — the paper's fine-grain model at the paper's
  size: ``ken-11`` at scale 1.0 (82,939 nonzeros), generated locally by
  :func:`repro.matrix.load_collection_matrix`.
* ``finegrain`` — the fine-grain model of a matrix with dense
  rows/columns, whose row and column nets are large.  Every fine-grain
  vertex has degree <= 2 (one row net, one column net), so the finest
  level of every bisection takes the single-term matching route.
* ``rownet-dense`` / ``colnet-dense`` — 1D models of a dense random
  matrix, where vertices have large degree and nets are large: matching
  takes the product route, one blocked sparse product per level.

Each instance runs *repeats* times and the minimum wall time is kept —
on a shared machine the min-of-N is the noise-robust estimator.  The
telemetry phase breakdown (self time per span name) of the min-time run
provides the attribution table, with matching split further by the
``route=`` its spans name (the only phase with two routes), and the
coarse builds' dropped and merged net counts.

Every repeat must produce the same partition — the benchmark hashes
each part vector and reports ``deterministic``; the CLI exits 1 when
two repeats differ.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro._util import Timer, part_sha
from repro.bench.harness import host
from repro.partitioner.config import PartitionerConfig
from repro.telemetry import TelemetryRecorder, use_recorder

__all__ = ["run_vcycle_bench"]

#: phase names reported in the breakdown table, aggregated from
#: telemetry span self-times (everything else folds into "other")
_PHASES = (
    "coarsen.match",
    "coarsen.build",
    "initial",
    "refine.fm",
    "kway",
)


def dense_rows_matrix(n: int, n_dense: int, size: int, seed: int = 7):
    """A sparse matrix with *n_dense* dense rows and columns of *size*
    nonzeros each — the structure whose fine-grain model has large
    row/column nets."""
    rng = np.random.default_rng(seed)
    a = sp.lil_matrix((n, n))
    for i in range(n_dense):
        a[i, rng.choice(n, size, replace=False)] = 1.0
        a[rng.choice(n, size, replace=False), i] = 1.0
    return a.tocsr()


def uniform_dense_matrix(n: int, density: float, seed: int = 11):
    """A uniformly dense random matrix: its 1D (rownet/colnet) models
    have high-degree vertices and large nets."""
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=density, format="csr", rng=rng)
    a.data[:] = 1.0
    return a


def _instances(quick: bool):
    """``(name, matrix, source, method)`` tuples; quick mode shrinks
    everything so CI can smoke the full code path in seconds."""
    from repro.matrix import load_collection_matrix

    ken_scale = 0.05 if quick else 1.0
    if quick:
        fg = dense_rows_matrix(600, 15, 220, seed=7)
        dense = uniform_dense_matrix(500, 0.12, seed=11)
    else:
        fg = dense_rows_matrix(2500, 50, 1000, seed=7)
        dense = uniform_dense_matrix(1200, 0.15, seed=11)
    ken = load_collection_matrix("ken-11", ken_scale)
    return (
        ("finegrain-ken-11", ken, f"collection:ken-11@{ken_scale}", "finegrain"),
        ("finegrain", fg, "dense_rows_matrix", "finegrain"),
        ("rownet-dense", dense, "uniform_dense_matrix", "rownet"),
        ("colnet-dense", dense, "uniform_dense_matrix", "columnnet"),
    )


def _route_times(rec: TelemetryRecorder) -> tuple[dict, dict]:
    """Self seconds per ``name/route`` of the spans that name a route,
    and the coarse builds' level, dropped-net and merged-net totals."""
    routes: dict[str, float] = {}
    build = {"levels": 0, "dropped": 0, "merged": 0}
    for root in rec.roots:
        for span, _ in root.walk():
            if "route" in span.attrs:
                key = f"{span.name}/{span.attrs['route']}"
                routes[key] = routes.get(key, 0.0) + span.self_duration
            elif span.name == "coarsen.build":
                build["levels"] += 1
                build["dropped"] += span.attrs["dropped"]
                build["merged"] += span.attrs["merged"]
    return {k: round(v, 4) for k, v in sorted(routes.items())}, build


def _run_once(a, method: str, k: int, seed: int, cfg) -> dict:
    """One full decompose() under a fresh recorder; returns wall time,
    partition hash, cutsize and phase self-times."""
    from repro.core.api import decompose

    rec = TelemetryRecorder()
    with use_recorder(rec):
        with Timer() as t:
            res = decompose(a, k, method=method, seed=seed, config=cfg)
    durs = rec.durations_by_name(self_time=True)
    phases = {name: round(durs.pop(name, 0.0), 4) for name in _PHASES}
    phases["other"] = round(sum(durs.values()), 4)
    routes, build = _route_times(rec)
    return {
        "seconds": t.elapsed,
        "cutsize": int(res.cutsize),
        "part_sha": part_sha(res.part),
        "phases": phases,
        "routes": routes,
        "coarse_build": build,
    }


def run_vcycle_bench(
    k: int = 64,
    repeats: int = 3,
    seed: int = 3,
    quick: bool = False,
    progress=None,
) -> dict:
    """Run the end-to-end benchmark and return the document."""
    hardware = host()
    if quick:
        repeats = 1
    # kway_refine on so the K-way boundary sweep phase is exercised too
    cfg = PartitionerConfig(kway_refine=True)

    out: dict = {
        "bench": "vcycle-e2e",
        "k": k,
        "seed": seed,
        "repeats": repeats,
        "quick": quick,
        "hardware": hardware,
        # every run is single-threaded (n_starts=1, n_workers=1): core
        # count never inflates these numbers
        "single_threaded": True,
        "instances": {},
    }

    for name, a, source, method in _instances(quick):
        best = None
        shas = set()
        for rep in range(repeats):
            if progress:
                progress(f"{name} (rep {rep + 1}/{repeats})")
            r = _run_once(a, method, k, seed, cfg)
            shas.add(r["part_sha"])
            if best is None or r["seconds"] < best["seconds"]:
                best = r
        best["seconds"] = round(best["seconds"], 4)
        out["instances"][name] = {
            "matrix": {
                "source": source,
                "shape": list(a.shape),
                "nnz": int(a.nnz),
            },
            "method": method,
            **best,
            "deterministic": len(shas) == 1,
        }

    out["summary"] = {
        "seconds_by_instance": {
            name: row["seconds"] for name, row in out["instances"].items()
        },
        "all_deterministic": all(
            row["deterministic"] for row in out["instances"].values()
        ),
    }
    out["notes"] = [
        "end-to-end wall time of decompose(), min over "
        f"{repeats} repetition(s); the phase table is the telemetry "
        "self-time breakdown of the fastest run.",
        "routes splits coarsen.match self time by the route= its spans "
        "name; coarse_build totals the nets each level's "
        "build dropped (< 2 distinct clusters) and merged (identical to "
        "an earlier net).",
        "deterministic is true when every repetition hashed the same "
        "partition.",
        "all runs are single-threaded (n_starts=1, n_workers=1); these "
        "numbers do not depend on core count "
        f"(host: {hardware['usable_cores']} usable).",
    ]
    return out
