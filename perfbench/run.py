"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload finegrain-paper --seed 0 --seconds 20 --trace 0

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object::

    {"correct": true, "attempted": 96, "failed": 0,
     "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see BENCHMARK.json).  ``--out FILE`` appends the whole run document
(host block, settings, per-instance detail, problems) to FILE as one JSON
line; ``perfbench/compare.py`` reads such files.  ``--smoke`` runs the
workload at toy size.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the program's sources are not in the checkout.

No process the run starts outlives it: the run adopts orphaned
descendants (engine workers, serve daemons and their children, the
``multiprocessing`` resource trackers of this process and of the set-up
interpreters) and, on every way out, waits until each has ended, killing
what is still running after ``REAP_GRACE_S``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("finegrain-paper", "onedim-baselines", "multistart-2core", "serve-mixed")
#: working-set size of serve-mixed under --smoke
SMOKE_WORKING_SET = 4
#: seconds descendants get to end on their own before they are killed
REAP_GRACE_S = 5.0
_PR_SET_CHILD_SUBREAPER = 36


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="input seed: the same seed generates the same inputs")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="length of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: the traced run, reporting per-layer metrics")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="append the full run document to FILE (JSON lines)")
    p.add_argument("--smoke", action="store_true", help="toy-size inputs")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# process hygiene
# ----------------------------------------------------------------------
def _adopt_orphans() -> None:
    """Make this process the child subreaper of everything it starts, so
    a descendant whose parent ends is re-parented here (Linux only)."""
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> list[int]:
    me = str(os.getpid())
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses
        if stat.rsplit(")", 1)[1].split()[1] == me:
            out.append(int(entry))
    return out


def _reap_descendants() -> None:
    """Wait until every descendant has ended; kill stragglers.

    This process's resource tracker only ends when asked, so it is
    stopped first.  Orphans are re-parented here, so once ``waitpid``
    finds no child at all, no descendant is left.
    """
    tracker_mod = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_mod is not None:
        with contextlib.suppress(Exception):
            tracker_mod._resource_tracker._stop()
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                with contextlib.suppress(OSError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.01)


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)  # unwinds through every finally


def main(argv=None) -> int:
    args = parse_args(argv)
    _adopt_orphans()
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return _run(args)
    finally:
        _reap_descendants()


def _run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro is missing from the checkout", file=sys.stderr)
        return 2
    # the program must see the benchmark's settings, not the caller's
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.chdir(ROOT)  # the daemon's socket paths are relative to the checkout

    from perfbench import common

    common.WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(common.WORK)
    from perfbench import batch, serving

    t0 = time.perf_counter()
    try:
        if args.workload == "serve-mixed":
            doc = serving.run(
                args.seed, args.seconds, bool(args.trace),
                working_set=SMOKE_WORKING_SET if args.smoke else serving.WORKING_SET,
            )
        else:
            doc = batch.run(
                args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke
            )
    finally:
        with contextlib.suppress(OSError):
            common.WORK.rmdir()  # only when the run left it empty

    names = common.PER_LAYER if args.trace else common.END_TO_END
    # a per-layer metric of a layer the workload never enters reads 0
    values = {name: 0.0 for name in common.PER_LAYER} if args.trace else {}
    values.update(doc["metrics"])
    extra = set(values) - set(names)
    if extra:
        raise RuntimeError(f"metrics not declared in the tables: {sorted(extra)}")
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in names.items()
    }
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "elapsed_s": time.perf_counter() - t0,
            "host": common.host_block(),
            **doc,
            "metrics": metrics,
        }
        with open(args.out, "a") as f:
            f.write(json.dumps(record, default=str) + "\n")

    for problem in doc["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": metrics,
    }))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
