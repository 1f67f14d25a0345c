"""Plumbing shared by the ``BENCH_*`` records: the host probe, the JSON
record writer, and the live-daemon helper of ``repro-bench chaos``.

Every record carries the same ``hardware`` block (:func:`host`) so two
records can be compared for the machine they were taken on, and every
record is written the same way (:func:`write_record`).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

__all__ = ["host", "write_record", "StateDir", "Daemon"]


def host() -> dict:
    """The hardware-honesty block: total and usable cores, machine, Python."""
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


def write_record(path: str, doc: dict) -> None:
    """Write one benchmark record as indented JSON."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


class StateDir:
    """The on-disk identity of one daemon across restarts."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.sock = os.path.join(root, "repro.sock")
        self.cache_dir = os.path.join(root, "cache")
        self.journal = os.path.join(root, "journal.ndjson")
        self.trace = os.path.join(root, "trace.ndjson")

    def tmp_files(self) -> list:
        found = []
        for dirpath, _, names in os.walk(self.root):
            found.extend(
                os.path.join(dirpath, n) for n in names if n.endswith(".tmp")
            )
        return sorted(found)


class Daemon:
    """A ``repro serve`` subprocess on *state*, started ready to serve.

    The daemon never inherits a ``REPRO_FAULTS`` plan from the caller:
    it runs exactly *faults*, or none.  A plan that names
    ``worker.heartbeat`` also gets fast heartbeats, so the crashed child
    is detected within the run.
    """

    def __init__(self, state: StateDir, workers: int,
                 faults: str | None = None) -> None:
        self.state = state
        env = dict(os.environ)
        env.pop("REPRO_FAULTS", None)
        if faults:
            env["REPRO_FAULTS"] = faults
            if "worker.heartbeat" in faults:
                env.setdefault("REPRO_HEARTBEAT_INTERVAL", "0.05")
                env.setdefault("REPRO_HEARTBEAT_TIMEOUT", "0.5")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--unix", state.sock, "--workers", str(workers),
                "--cache-dir", state.cache_dir, "--journal", state.journal,
                "--trace", state.trace, "--allow-shutdown",
                "--drain-timeout", "10",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        ready = self.proc.stdout.readline()
        if "listening" not in ready:
            self.kill()
            raise RuntimeError(f"daemon failed to start: {ready!r}")

    def stop(self) -> int:
        """Graceful shutdown over the socket (terminate if that fails);
        returns the exit code."""
        from repro.serve.client import Client

        try:
            with Client(self.state.sock, timeout=30.0) as c:
                c.shutdown()
        except Exception:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._close()
        return self.proc.returncode

    def kill(self) -> None:
        """SIGKILL: no drain, no journal tombstone, no cleanup."""
        self.proc.kill()
        self.proc.wait()
        self._close()

    def _close(self) -> None:
        try:
            self.proc.stdout.close()
        except OSError:
            pass
