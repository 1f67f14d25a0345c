"""Differential replay: one seed, every execution path, diffed bit-by-bit.

Two orthogonal execution knobs — the multi-start backend
(serial/process) and the tree-parallel recursion — each promise not to
change a single output bit.  This module replays one ``decompose()``
call across the whole grid and diffs the results stage by stage,
reporting the *first* divergent stage per variant:

1. ``bisection_cuts`` — the per-bisection cut sequence (depth-first order),
   the earliest observable signal of a divergent RNG stream;
2. ``cutsize`` — the final Eq. 3 objective;
3. ``part`` — SHA-256 of the partition vector;
4. ``decomposition`` — SHA-256 of the three ownership arrays;
5. ``counters`` — backend-independent telemetry totals.

Bit-identity is only promised *within* a determinism universe:
``tree_parallel=False`` (the legacy sequential RNG stream) and
``tree_parallel=True`` (the seed tree) are different deterministic
universes by design, so runs are grouped by universe and each group is
diffed against its own serial reference — never across groups.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.partitioner.config import PartitionerConfig
from repro.telemetry import use_recorder

__all__ = [
    "ReplayVariant",
    "ReplayRun",
    "ReplayDivergence",
    "ReplayReport",
    "default_variants",
    "replay_decompose",
    "write_replay_report",
]

#: telemetry counters whose totals must not depend on the backend (spans
#: recorded inside process-pool workers are lost, so most counters are
#: legitimately backend-dependent; these are recorded by the parent)
STABLE_COUNTERS = ("engine.starts", "engine.best_cut", "engine.cut_spread")

#: the comparison stages, in diff order
STAGES = ("bisection_cuts", "cutsize", "part", "decomposition", "counters")


@dataclass(frozen=True)
class ReplayVariant:
    """One point of the execution grid."""

    label: str
    backend: str  # start_backend: "serial" | "process"
    tree_parallel: bool
    kway: bool = False  # enable the K-way boundary refinement pass

    @property
    def universe(self) -> str:
        """Determinism universe this variant must be bit-identical within.

        ``kway`` is part of the universe: the extra refinement pass
        legitimately changes the partition, so its variants diff against
        the serial+kway run.
        """
        base = "tree" if self.tree_parallel else "legacy"
        return base + "+kway" if self.kway else base


@dataclass
class ReplayRun:
    """Observed outcome of one variant."""

    label: str
    backend: str
    tree_parallel: bool
    universe: str
    kway: bool = False
    cutsize: int | None = None
    imbalance: float | None = None
    part_sha: str | None = None
    bisection_cuts: list = field(default_factory=list)
    dec_sha: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    runtime: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class ReplayDivergence:
    """First stage at which a variant's output differs from its reference."""

    label: str
    reference: str
    stage: str  # one of STAGES, or "error"
    detail: str


@dataclass
class ReplayReport:
    """Everything one replay observed, plus the verdict."""

    matrix: str
    method: str
    k: int
    seed: int
    n_starts: int
    n_workers: int
    runs: list = field(default_factory=list)
    divergences: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Bit-identity held across every variant of every universe."""
        return not self.divergences

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"replay {self.matrix} method={self.method} k={self.k} "
            f"seed={self.seed} starts={self.n_starts} workers={self.n_workers}: "
            + ("bit-identical" if self.passed else "DIVERGED")
        ]
        for r in self.runs:
            state = f"cut={r.cutsize} sha={r.part_sha[:12]}" if not r.error else f"ERROR: {r.error}"
            lines.append(f"  [{r.universe:>6}] {r.label:<24} {state}")
        for d in self.divergences:
            lines.append(
                f"  DIVERGENCE {d.label} vs {d.reference} at stage "
                f"{d.stage!r}: {d.detail}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-friendly form."""
        return {
            "matrix": self.matrix,
            "method": self.method,
            "k": self.k,
            "seed": self.seed,
            "n_starts": self.n_starts,
            "n_workers": self.n_workers,
            "passed": self.passed,
            "runs": [asdict(r) for r in self.runs],
            "divergences": [asdict(d) for d in self.divergences],
        }


def default_variants() -> list[ReplayVariant]:
    """The full grid: backends × tree, plus a K-way universe.

    The serial variant of each universe is the reference the others are
    diffed against.  The ``+kway`` universe turns on the K-way boundary
    refinement pass (which legitimately changes the partition) on the
    legacy recursion, so the process backend is diffed with it too.
    """
    out: list[ReplayVariant] = []
    for tree in (False, True):
        suffix = "+tree" if tree else ""
        out.append(ReplayVariant(f"serial{suffix}", "serial", tree))
        out.append(ReplayVariant(f"process{suffix}", "process", tree))
    out.append(ReplayVariant("serial+kway", "serial", False, kway=True))
    out.append(ReplayVariant("process+kway", "process", False, kway=True))
    return out


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(arr, dtype=np.int64).tobytes()).hexdigest()


def _first_divergence(run: ReplayRun, ref: ReplayRun) -> ReplayDivergence | None:
    """Compare *run* to its universe reference, stage by stage."""
    if run.bisection_cuts != ref.bisection_cuts:
        pairs = [
            (i, a, b)
            for i, (a, b) in enumerate(zip(run.bisection_cuts, ref.bisection_cuts))
            if a != b
        ]
        where = (
            f"first at bisection {pairs[0][0]}: {pairs[0][1]} != {pairs[0][2]}"
            if pairs
            else f"lengths {len(run.bisection_cuts)} != {len(ref.bisection_cuts)}"
        )
        return ReplayDivergence(run.label, ref.label, "bisection_cuts", where)
    if run.cutsize != ref.cutsize:
        return ReplayDivergence(
            run.label, ref.label, "cutsize", f"{run.cutsize} != {ref.cutsize}"
        )
    if run.part_sha != ref.part_sha:
        return ReplayDivergence(
            run.label, ref.label, "part", "partition bits differ"
        )
    if run.dec_sha != ref.dec_sha:
        keys = [key for key in ref.dec_sha if run.dec_sha.get(key) != ref.dec_sha[key]]
        return ReplayDivergence(
            run.label, ref.label, "decomposition", f"ownership differs: {keys}"
        )
    diff = {
        name: (run.counters.get(name), ref.counters.get(name))
        for name in STABLE_COUNTERS
        if run.counters.get(name) != ref.counters.get(name)
    }
    if diff:
        return ReplayDivergence(
            run.label, ref.label, "counters", f"stable counters differ: {diff}"
        )
    return None


def replay_decompose(
    a,
    k: int,
    method: str = "finegrain",
    seed: int = 0,
    n_starts: int = 2,
    n_workers: int = 2,
    epsilon: float = 0.03,
    variants: list[ReplayVariant] | None = None,
    config: PartitionerConfig | None = None,
    matrix_label: str = "matrix",
) -> ReplayReport:
    """Run one decompose across the execution grid and diff the outputs.

    Every variant runs with the same *seed* and ``early_stop_cut`` left
    off (early stop deliberately trades run-set determinism for time, so
    it is excluded from the bit-identity contract).  Failures to run a
    variant (e.g. no process pools in a sandbox) are recorded as
    ``error`` divergences rather than crashing the replay.
    """
    from repro.core.api import decompose  # deferred: replay -> api -> engine

    variants = variants if variants is not None else default_variants()
    base = config or PartitionerConfig(epsilon=epsilon)
    report = ReplayReport(
        matrix=matrix_label,
        method=method,
        k=k,
        seed=seed,
        n_starts=n_starts,
        n_workers=n_workers,
    )

    for v in variants:
        cfg = base.with_(
            n_starts=n_starts,
            n_workers=n_workers,
            start_backend=v.backend,
            tree_parallel=v.tree_parallel,
            early_stop_cut=None,
            kway_refine=v.kway,
        )
        run = ReplayRun(
            label=v.label,
            backend=v.backend,
            tree_parallel=v.tree_parallel,
            universe=v.universe,
            kway=v.kway,
        )
        try:
            with use_recorder() as rec:
                res = decompose(a, k, method=method, config=cfg, seed=seed)
            run.cutsize = int(res.cutsize)
            run.imbalance = float(res.imbalance)
            run.part_sha = _sha(res.part)
            run.bisection_cuts = [
                int(c) for c in getattr(res.info, "bisection_cuts", [])
            ]
            dec = res.decomposition
            run.dec_sha = {
                "nnz_owner": _sha(dec.nnz_owner),
                "x_owner": _sha(dec.x_owner),
                "y_owner": _sha(dec.y_owner),
            }
            run.runtime = float(res.runtime)
            totals = rec.counter_totals()
            run.counters = {name: int(totals[name]) for name in sorted(totals)}
        except Exception as exc:  # record, don't crash the replay
            run.error = f"{type(exc).__name__}: {exc}"
        report.runs.append(run)

    # diff each universe against its own serial reference
    for universe in sorted({r.universe for r in report.runs}):
        group = [r for r in report.runs if r.universe == universe]
        if not group:
            continue
        ref = next((r for r in group if r.error is None), None)
        for run in group:
            if run.error is not None:
                report.divergences.append(
                    ReplayDivergence(run.label, "-", "error", run.error)
                )
                continue
            if ref is None or run is ref:
                continue
            d = _first_divergence(run, ref)
            if d is not None:
                report.divergences.append(d)
    return report


def write_replay_report(path: str, reports: list[ReplayReport]) -> None:
    """Write replay reports as one JSON document."""
    doc = {
        "passed": all(r.passed for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
