"""Kernel-tier microbenchmark: ``python -m repro.bench kernels``.

Times the hot loops that the kernel axis (``python | flat | jit``, see
:mod:`repro.partitioner.kernels`) reimplements, tier against tier on the
*same* synthetic instance with the *same* RNG stream:

1. the FM inner loop proper — an identical scripted move sequence driven
   through each tier's move kernel (bucket removal, lock, critical-net
   gain updates, bucket re-appends), with the shared vectorized pass
   setup (gain initialization, bucket seeding) outside the timer;
2. one full FM refinement pass (setup + selection + moves + rollback)
   per repetition — the end-to-end view, whose ratio is diluted by the
   setup work both tiers share;
3. HCM/HCC matching — one full clustering sweep per repetition.

The instance is built so its large (~200-pin) nets are *critical*
(monochromatic at pass start): that is the regime the flat tier targets,
where the python reference spends its time in per-pin interpreter loops
(the ``T == 0`` / ``F == 1`` bump-all-pins rules) while the flat tier
batches each net's gain updates into a handful of numpy calls.  Pin
counts stay small, like the sub-hypergraphs of deep recursive
bisection.

Every tier must produce bit-identical output — the benchmark diffs the
resulting partition/clustering hashes and reports ``bit_identical`` per
tier, so a timing row from a divergent kernel cannot pass silently.  An
unavailable tier (e.g. ``jit`` without numba) is recorded with its
probe reason instead of a timing row; it is *not* timed through the
fallback, which would silently measure a different tier.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform

import numpy as np

from repro._util import Timer
from repro.partitioner.config import PartitionerConfig
from repro.partitioner.kernels import kernel_available, kernel_info
from repro.telemetry import TelemetryRecorder, use_recorder

__all__ = ["run_kernels_bench", "write_kernels_bench"]

#: tiers in report order (reference first)
_TIERS = ("python", "flat", "jit")


def _hardware() -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = os.cpu_count() or 1
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": usable,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(arr, dtype=np.int64).tobytes()).hexdigest()


def synth_instance(
    nv: int = 8000,
    net_size: int = 200,
    degree: int = 24,
    n_cross: int = 400,
    seed: int = 0,
):
    """A synthetic instance that keeps large nets *critical*.

    Mimics the fine-grain model of a matrix with dense rows/columns whose
    nonzeros cluster on one side: each side's vertices are covered by
    *degree* random permutations chopped into nets of *net_size* pins, so
    every large net starts monochromatic and the first move into it fires
    the full ``T == 0`` critical-net update over ~*net_size* pins — the
    per-pin loop the flat tier batches into numpy calls.  *n_cross* small
    (2–4 pin) cross-side nets seed a boundary and some positive-gain
    churn.  Unit weights and costs.  Returns ``(h, part0)`` where
    *part0* is the (balanced) side assignment.
    """
    from repro.hypergraph.hypergraph import Hypergraph

    rng = np.random.default_rng(seed)
    half = nv // 2
    nets = []
    for block in (np.arange(half), np.arange(half, nv)):
        for _ in range(degree):
            perm = rng.permutation(block)
            for i in range(0, len(block) - net_size + 1, net_size):
                nets.append(perm[i : i + net_size])
    for _ in range(n_cross):
        nets.append(rng.choice(nv, int(rng.integers(2, 5)), replace=False))
    sizes = np.array([len(n) for n in nets])
    pins = np.concatenate(nets)
    xpins = np.concatenate([[0], np.cumsum(sizes)])
    h = Hypergraph(nv, xpins, pins)
    part0 = np.zeros(nv, dtype=np.int64)
    part0[half:] = 1
    return h, part0


def synth_match_instance(
    n_blocks: int = 150,
    block: int = 40,
    degree: int = 12,
    net_size: int = 30,
    seed: int = 1,
):
    """Community-structured instance for the matching benchmark.

    Nets draw their pins within one *block* of vertices, so each
    vertex's scoring expansion revisits the same ~*block* neighbours
    through many nets — the regime batched scoring targets, where
    candidate grouping collapses the per-pair work while the scalar
    loop still walks (and float-accumulates) every pin.  Kept small,
    like the sub-hypergraphs of deep recursive bisection.
    """
    from repro.hypergraph.hypergraph import Hypergraph

    rng = np.random.default_rng(seed)
    nv = n_blocks * block
    nets = []
    for b in range(n_blocks):
        base = b * block
        for _ in range(degree):
            perm = rng.permutation(block) + base
            for i in range(0, block - net_size + 1, net_size):
                nets.append(perm[i : i + net_size])
    sizes = np.array([len(n) for n in nets])
    pins = np.concatenate(nets)
    xpins = np.concatenate([[0], np.cumsum(sizes)])
    return Hypergraph(nv, xpins, pins)


def _fm_runner(tier: str):
    """The pass function for *tier*, called directly (no fallback)."""
    if tier == "flat":
        from repro.partitioner.fm_flat import fm_pass_flat

        return fm_pass_flat
    if tier == "jit":
        from repro.partitioner import fm_jit

        fm_jit.warmup()  # compile outside the timed region

        return fm_jit.fm_pass_jit

    from repro.partitioner.refine import _fm_pass

    def run(core, maxw, cfg, rng):
        return _fm_pass(core, maxw, cfg, rng, core.cut())

    return run


def _time_fm(tier, h, part0, maxw, cfg, repeats, seed) -> dict:
    from repro.partitioner.refine import FMCore

    fn = _fm_runner(tier)
    secs = 0.0
    ops = 0
    gains = []
    shas = []
    for rep in range(repeats):
        rng = np.random.default_rng(seed + rep)
        core = FMCore(h, part0)
        rec = TelemetryRecorder()
        with use_recorder(rec):
            with Timer() as t:
                gain, moved = fn(core, maxw, cfg, rng)
        secs += t.elapsed
        totals = rec.counter_totals()
        # ops = applied moves incl. the ones rolled back: the unit of
        # inner-loop work, identical across tiers by bit-identity
        ops += int(totals.get("fm.moves", 0)) + int(totals.get("fm.rollbacks", 0))
        gains.append(int(gain))
        shas.append(_sha(core.part_array()))
    return {
        "seconds": round(secs, 4),
        "passes": repeats,
        "moves_applied": ops,
        "moves_per_sec": round(ops / secs, 1) if secs > 0 else None,
        "gains": gains,
        "part_shas": shas,
    }


def _time_inner(tier, h, part0, vlist, repeats, seed) -> dict:
    """Drive the scripted move sequence *vlist* through *tier*'s move
    kernel; only the moves are timed (setup/seeding happen outside).

    Both drivers replicate exactly what their pass's selection loop does
    per move — remove from bucket, lock, apply — so this measures the
    production inner loop, not a synthetic proxy.  The jit tier exposes
    a whole-pass kernel with no per-move entry point and is covered by
    the ``fm_pass`` benchmark instead.
    """
    from repro.partitioner.refine import FMCore

    secs = 0.0
    shas = []
    moves = 0
    for _rep in range(repeats):
        core = FMCore(h, part0)
        core.compute_all_gains()
        nv = core.nv
        bound = core.max_gain_bound()
        if tier == "flat":
            from repro.partitioner.fm_flat import FlatGainBucket, FlatMoveEngine

            G = np.asarray(core.gain, dtype=np.int64)
            eng = FlatMoveEngine(core, G, boundary_mode=False)
            b0 = FlatGainBucket(nv, bound, gains=G)
            b1 = FlatGainBucket(nv, bound, gains=G)
            eng.buckets = (b0, b1)
            part = eng.part
            idx0 = np.flatnonzero(part == 0)
            idx1 = np.flatnonzero(part == 1)
            b0.bulk_insert(idx0, G[idx0])
            b1.bulk_insert(idx1, G[idx1])
            with Timer() as t:
                for v in vlist:
                    eng.buckets[int(part[v])].remove(v)
                    eng.lock(v)
                    eng.apply_move(v)
            gain_end, part_end = G, eng.part
        else:
            from repro.partitioner.gainbucket import GainBucket

            b0 = GainBucket(nv, bound)
            b1 = GainBucket(nv, bound)
            core.buckets = (b0, b1)
            core.insert_on_touch = False
            gains = np.asarray(core.gain, dtype=np.int64)
            part = core.part_array()
            idx0 = np.flatnonzero(part == 0)
            idx1 = np.flatnonzero(part == 1)
            b0.bulk_insert(idx0, gains[idx0])
            b1.bulk_insert(idx1, gains[idx1])
            with Timer() as t:
                for v in vlist:
                    core.buckets[core.part[v]].remove(v)
                    core.locked[v] = True
                    core.apply_move(v)
            gain_end = np.asarray(core.gain, dtype=np.int64)
            part_end = core.part_array()
        secs += t.elapsed
        moves += len(vlist)
        # hash gains AND partition: the move kernel's full observable state
        shas.append(_sha(gain_end) + _sha(part_end))
    return {
        "seconds": round(secs, 4),
        "moves_applied": moves,
        "moves_per_sec": round(moves / secs, 1) if secs > 0 else None,
        "state_shas": shas,
    }


def _time_matching(tier, h, repeats, seed) -> dict:
    from repro.partitioner.coarsen import match_vertices

    secs = 0.0
    shas = []
    clusters = []
    for rep in range(repeats):
        rng = np.random.default_rng(seed + rep)
        with Timer() as t:
            cmap, nc, _ = match_vertices(h, rng, scheme="hcc", kernel=tier)
        secs += t.elapsed
        shas.append(_sha(cmap))
        clusters.append(int(nc))
    pins = h.num_pins * repeats
    return {
        "seconds": round(secs, 4),
        "sweeps": repeats,
        "pins_scored": pins,
        "pins_per_sec": round(pins / secs, 1) if secs > 0 else None,
        "clusters": clusters,
        "cmap_shas": shas,
    }


def run_kernels_bench(
    nv: int = 8000,
    repeats: int = 3,
    seed: int = 0,
    epsilon: float = 0.03,
    progress=None,
) -> dict:
    """Run the per-tier microbenchmarks and return the result document."""
    hardware = _hardware()
    info = kernel_info()
    h, part0 = synth_instance(nv=nv, seed=seed)
    # matching gets its own small, community-structured instance: the
    # regime batched scoring targets
    h_match = synth_match_instance(seed=seed + 1)
    # the inner-loop instance maximizes critical-net work per move:
    # 2000-pin monochromatic nets, so early moves fire full T==0 sweeps
    # and later moves fire T==1 first-pin scans — the two shapes the
    # flat tier batches
    h_inner, part0_inner = synth_instance(
        nv=nv, net_size=2000, degree=24, n_cross=100, seed=seed + 2
    )
    # identical scripted move sequence for every tier
    vrng = np.random.default_rng(seed + 99)
    vlist = [int(x) for x in vrng.permutation(h_inner.num_vertices)[:16]]
    total_w = int(h.vertex_weights.sum())
    half = int(np.ceil(total_w * (1 + epsilon) / 2))
    maxw = (half, half)
    # full (non-boundary) candidate mode and a tight stall window: the
    # pass stops shortly after the heavy first-cut plateau instead of
    # grinding through thousands of cheap no-improvement moves, so the
    # measurement is dominated by critical-net gain-update work
    cfg = PartitionerConfig(
        epsilon=epsilon,
        fm_boundary_threshold=1 << 30,
        fm_stall_frac=0.02,
        fm_stall_min=64,
    )

    out: dict = {
        "bench": "kernels-microbench",
        "seed": seed,
        "repeats": repeats,
        "instance": {
            "fm_inner_loop": {
                "vertices": h_inner.num_vertices,
                "nets": h_inner.num_nets,
                "pins": int(h_inner.num_pins),
                "max_net_size": int(np.diff(h_inner.xpins).max()),
                "scripted_moves": len(vlist),
            },
            "fm": {
                "vertices": h.num_vertices,
                "nets": h.num_nets,
                "pins": int(h.num_pins),
                "max_net_size": int(np.diff(h.xpins).max()),
            },
            "matching": {
                "vertices": h_match.num_vertices,
                "nets": h_match.num_nets,
                "pins": int(h_match.num_pins),
            },
            "note": "synthetic fine-grain-style FM instances (monochromatic "
                    "large nets, every one critical at pass start, plus "
                    "small cross nets) and a community-structured matching "
                    "instance (nets confined to vertex blocks)",
        },
        "hardware": hardware,
        # the hot loops are single-threaded in every tier, so core count
        # never inflates these numbers — recorded for comparability only
        "single_threaded": True,
        "kernels": {
            t: dict(info[t]) for t in _TIERS
        },
        "fm_inner_loop": {},
        "fm_pass": {},
        "matching": {},
    }

    _SHA_KEY = {
        "fm_inner_loop": "state_shas",
        "fm_pass": "part_shas",
        "matching": "cmap_shas",
    }
    for bench_name, timer_fn, args in (
        ("fm_inner_loop", _time_inner, (h_inner, part0_inner, vlist, repeats, seed)),
        ("fm_pass", _time_fm, (h, part0, maxw, cfg, repeats, seed)),
        ("matching", _time_matching, (h_match, repeats, seed)),
    ):
        rows = out[bench_name]
        for tier in _TIERS:
            if bench_name == "fm_inner_loop" and tier == "jit":
                rows[tier] = {
                    "skipped": True,
                    "reason": "jit tier exposes a whole-pass kernel with "
                    "no per-move entry point; see fm_pass",
                }
                continue
            if not kernel_available(tier):
                rows[tier] = {
                    "skipped": True,
                    "reason": info[tier]["reason"],
                }
                continue
            if progress:
                progress(f"{bench_name}: {tier}")
            rows[tier] = timer_fn(tier, *args)
        ref = rows.get("python")
        if not ref or ref.get("skipped"):
            continue
        key = _SHA_KEY[bench_name]
        for tier in _TIERS:
            row = rows[tier]
            if row.get("skipped"):
                continue
            row["bit_identical"] = row[key] == ref[key]
            if tier != "python" and row["seconds"] > 0:
                row["speedup_vs_python"] = round(
                    ref["seconds"] / row["seconds"], 2
                )

    def _speedups(bench_name):
        return [
            row["speedup_vs_python"]
            for row in out[bench_name].values()
            if "speedup_vs_python" in row and row.get("bit_identical")
        ]

    inner = _speedups("fm_inner_loop")
    passes = _speedups("fm_pass")
    out["summary"] = {
        # the headline number: the FM inner loop proper
        "best_fm_speedup": max(inner) if inner else None,
        "best_fm_pass_speedup": max(passes) if passes else None,
        "all_bit_identical": all(
            row.get("bit_identical", True)
            for rows in (out["fm_inner_loop"], out["fm_pass"], out["matching"])
            for row in rows.values()
        ),
    }
    out["notes"] = [
        "fm_inner_loop drives an identical scripted move sequence "
        "through each tier's production move kernel (bucket removal + "
        "lock + critical-net gain updates + bucket re-appends) with the "
        "shared vectorized setup (gain init, bucket seeding) outside "
        "the timer; best_fm_speedup reads from this benchmark.",
        "fm_pass times one full FM refinement pass per repetition "
        "(setup + selection + critical-net gain updates + rollback) via "
        "the tier's pass function called directly — an unavailable tier "
        "is skipped with its probe reason, never timed through the "
        "fallback chain.  Its ratio is bounded by the vectorized setup "
        "work (gain initialization, bucket seeding) both tiers share.",
        "matching times one full HCC clustering sweep per repetition on "
        "a community-structured instance (nets confined to vertex "
        "blocks).  The flat tier routes to the scalar loop with "
        "per-vertex batching of dense scoring expansions — the former "
        "whole-chunk batched path measured 0.94x (its sort-based merge "
        "of duplicate candidate pairs ate the vectorization win) and "
        "is no longer routed, so near-1x-or-better is the expected "
        "reading: the flat matching tier must never lose to the "
        "reference, and the row proves its bit-identity.",
        "speedup_vs_python is only reported for rows whose outputs "
        "hashed bit-identical to the python reference.",
        "all tiers run single-threaded; these numbers do not depend on "
        f"core count (host: {hardware['usable_cores']} usable).",
    ]
    return out


def write_kernels_bench(path: str, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
