"""Deterministic fault injection for the parallel machinery.

The engine, the tree scheduler and the child supervisor all promise
graceful degradation: a crashed start is retried (serial backend) or
recomputed inline (process backend), and a dead or hung child, whether
it runs an engine start or a subtree, is killed and its work recomputed
inline.  Those promises are only worth anything if the failure paths
actually run — this module makes them run *on demand and
deterministically* so the test suite (and CI) can assert each one.

Fault plans
-----------
A plan is a comma-separated list of ``site:action[@hit]`` specs::

    tree.task:crash            # first subtree task raises FaultInjected
    checkpoint.write:oserror   # first checkpoint write fails
    tree.task:sleep0.5@2       # second subtree task sleeps half a second
    pool.submit:oserror@all    # every subtree fork fails

*Sites* are the named ``trip()`` calls wired into the production code:

``engine.start``
    A multi-start engine start (``engine._run_start``), in the serial
    backend's process or in a start's supervised child (fire it via the
    environment so the children see it).
``pool.submit``
    :meth:`repro.partitioner.pool.TreeScheduler.offer`, just before the
    subtree child is forked (exercises the failed-fork path: that one
    offer is declined and the subtree runs inline).
``tree.task``
    :func:`repro.partitioner.recursive._solve_subtree`, the subtree task
    body in a forked child (``crash`` exercises the inline recompute of
    a failed subtree; ``sleep`` only delays it while the child keeps
    heartbeating; fire it via the environment so the children see it).
``worker.heartbeat``
    The heartbeat loop of a supervised child — an engine start or a
    subtree (:mod:`repro.partitioner.resilience`) — before each beat is
    written.  ``crash`` silently kills the heartbeat thread, so with a
    small ``PartitionerConfig.heartbeat_timeout`` the parent presumes the
    child hung, kills it and recomputes its start or subtree inline (fire
    it via the environment so the children see it).
``checkpoint.write``
    :meth:`repro.partitioner.resilience.CheckpointStore` just before the
    atomic ``os.replace`` — a failed checkpoint write must never fail the
    partitioning run that produced it (absorbed and counted as
    ``checkpoint.write_errors``).
``serve.accept``
    :meth:`repro.serve.server.PartitionServer._serve_connection`, as a
    new connection is accepted — a failed accept closes that connection
    gracefully (counted ``accept_errors``), never the daemon.
``serve.journal_write``
    :meth:`repro.serve.journal.RequestJournal` appends, before the line
    is written — a failed journal write must never fail the request it
    records (absorbed and counted ``journal_write_errors``; only
    replayability of that request is lost).
``serve.cache_read``
    :meth:`repro.serve.cache.PartitionCache.get` — a failed cache read
    is a miss (counted ``cache_read_errors``): the service recomputes.
``serve.cache_write``
    :meth:`repro.serve.cache.PartitionCache.put` — a failed cache write
    costs future hits, never the response (counted
    ``cache_write_errors``).
``serve.compute``
    The service's engine call on a worker thread — a crash here is an
    ``engine-error`` response to that request (and its deduplicated
    waiters), not a daemon death; ``sleep`` holds a request in compute,
    the window the crash-recovery tests SIGKILL the daemon in.
``serve.respond``
    :meth:`repro.serve.server.PartitionServer` response writes — a
    failed write closes the connection (counted ``respond_errors``);
    the result is already cached/journaled, so a client resubmission by
    fingerprint is answered without recomputing.

*Actions*: ``crash`` raises :class:`FaultInjected` (a ``RuntimeError``,
so the existing degradation handlers catch it), ``oserror`` raises
``OSError``, and ``sleep<seconds>`` delays without raising.

*Hits*: ``@N`` fires on the N-th invocation of ``trip(site)`` (1-based,
counted per process; default ``@1``); ``@all`` fires every time.

Activation
----------
Either scope a plan to a block in the current process::

    with inject("tree.task:crash") as plan:
        decompose(...)
    assert plan.count("tree.task") >= 1

or export ``REPRO_FAULTS=<spec>`` so forked worker processes inherit the
plan too (each process keeps its own hit counters).  ``trip()`` costs one
dict lookup when nothing is active, so the production sites are free in
normal runs.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

__all__ = [
    "ENV_VAR",
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "inject",
    "trip",
    "active_plan",
    "reset",
]

#: environment variable carrying a fault plan into worker processes
ENV_VAR = "REPRO_FAULTS"

#: the trip() sites wired into the production code (documented above)
KNOWN_SITES = frozenset(
    {
        "engine.start",
        "pool.submit",
        "tree.task",
        "worker.heartbeat",
        "checkpoint.write",
        "serve.accept",
        "serve.journal_write",
        "serve.cache_read",
        "serve.cache_write",
        "serve.compute",
        "serve.respond",
    }
)


class FaultInjected(RuntimeError):
    """Raised by the ``crash`` action (a RuntimeError on purpose: the
    degradation paths under test catch ``(OSError, RuntimeError, ...)``)."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``site:action[@hit]`` entry of a fault plan."""

    site: str
    #: "crash" | "oserror" | "sleep"
    action: str
    #: delay for the sleep action
    seconds: float = 0.0
    #: 1-based trip() invocation that fires; None means every invocation
    hit: int | None = 1

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        text = text.strip()
        if ":" not in text:
            raise ValueError(f"fault spec {text!r} is not 'site:action[@hit]'")
        site, action = text.split(":", 1)
        site = site.strip()
        hit: int | None = 1
        if "@" in action:
            action, hit_s = action.split("@", 1)
            hit = None if hit_s.strip() == "all" else int(hit_s)
            if hit is not None and hit < 1:
                raise ValueError(f"fault hit must be >= 1, got {hit}")
        action = action.strip()
        seconds = 0.0
        if action.startswith("sleep"):
            seconds = float(action[len("sleep"):])
            if seconds < 0:
                raise ValueError("sleep duration must be non-negative")
            action = "sleep"
        elif action not in ("crash", "oserror"):
            raise ValueError(f"unknown fault action {action!r}")
        if site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {site!r}; known: {sorted(KNOWN_SITES)}"
            )
        return cls(site=site, action=action, seconds=seconds, hit=hit)

    def spec_string(self) -> str:
        """Round-trippable text form (suitable for ``REPRO_FAULTS``)."""
        action = f"sleep{self.seconds:g}" if self.action == "sleep" else self.action
        suffix = "@all" if self.hit is None else ("" if self.hit == 1 else f"@{self.hit}")
        return f"{self.site}:{action}{suffix}"


class FaultPlan:
    """A set of :class:`FaultSpec` entries plus per-site hit counters.

    Thread-safe: the serve daemon's compute threads and the supervised
    workers' heartbeat threads trip sites concurrently.
    Counters are per plan instance — and therefore per process when the
    plan travels through the environment (every forked worker parses its
    own copy lazily).
    """

    def __init__(self, specs) -> None:
        self.specs: list[FaultSpec] = list(specs)
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()
        #: (site, action, hit_number) of every fault that actually fired
        self.fired: list[tuple[str, str, int]] = []

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a comma-separated ``site:action[@hit]`` plan string."""
        specs = [FaultSpec.parse(t) for t in text.split(",") if t.strip()]
        return cls(specs)

    def spec_string(self) -> str:
        """The plan as ``REPRO_FAULTS`` text."""
        return ",".join(s.spec_string() for s in self.specs)

    def count(self, site: str) -> int:
        """How many times ``trip(site)`` ran under this plan."""
        with self._lock:
            return self._counts.get(site, 0)

    def trip(self, site: str) -> None:
        """Record one invocation of *site* and fire any matching spec."""
        with self._lock:
            n = self._counts[site] = self._counts.get(site, 0) + 1
            due = [
                s
                for s in self.specs
                if s.site == site and (s.hit is None or s.hit == n)
            ]
            self.fired.extend((s.site, s.action, n) for s in due)
        for s in due:
            if s.action == "sleep":
                time.sleep(s.seconds)
            elif s.action == "oserror":
                raise OSError(f"injected fault at {site} (hit {n})")
            else:
                raise FaultInjected(f"injected fault at {site} (hit {n})")


# ----------------------------------------------------------------------
# activation: an in-process plan takes precedence over the environment
# ----------------------------------------------------------------------
_ACTIVE: FaultPlan | None = None
#: (raw env string, parsed plan) — parsed once so hit counters persist
#: across trip() calls; invalidated when the env value changes
_ENV_CACHE: tuple[str | None, FaultPlan | None] = (None, None)


def active_plan() -> FaultPlan | None:
    """The plan ``trip()`` consults, or None when fault injection is off."""
    if _ACTIVE is not None:
        return _ACTIVE
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    global _ENV_CACHE
    if _ENV_CACHE[0] != raw:
        _ENV_CACHE = (raw, FaultPlan.parse(raw))
    return _ENV_CACHE[1]


def trip(site: str) -> None:
    """Production-side hook: fire any active fault spec for *site*.

    Near-zero cost when no plan is active (one global read plus one
    ``os.environ`` lookup).
    """
    plan = active_plan()
    if plan is not None:
        plan.trip(site)


def reset() -> None:
    """Deactivate any plan and drop the env-plan cache (test isolation)."""
    global _ACTIVE, _ENV_CACHE
    _ACTIVE = None
    _ENV_CACHE = (None, None)


class inject:
    """Context manager activating a plan in the current process only.

    Accepts a plan string or a :class:`FaultPlan`; yields the plan so the
    caller can assert on :attr:`FaultPlan.fired` / :meth:`FaultPlan.count`
    afterwards.  Worker *processes* do not see it — use ``REPRO_FAULTS``
    for those.
    """

    def __init__(self, plan: FaultPlan | str) -> None:
        self.plan = FaultPlan.parse(plan) if isinstance(plan, str) else plan

    def __enter__(self) -> FaultPlan:
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self.plan
        return self.plan

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._prev
