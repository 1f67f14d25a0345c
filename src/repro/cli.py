"""Command-line interface: ``python -m repro <command>``.

Commands
--------
info
    Print Table-1 style structural statistics of a matrix.
partition
    Decompose a matrix with one of the models and write the ownership
    arrays; prints partition quality and exact communication statistics.
spmv
    Load a decomposition produced by ``partition`` and simulate one
    distributed multiply, verifying it against the serial product.
verify
    Audit a saved partition file with the independent oracles of
    :mod:`repro.verify`: balance, cutsize, the consistency condition and
    the Eq. 3 cutsize == communication-volume equivalence.  Exits 1 when
    any check fails.
profile
    Run a full decomposition + simulated SpMV under a telemetry recorder;
    print the span tree, counter totals and the hottest phases, and
    optionally write an NDJSON trace / flat JSON summary.
serve
    Run the partitioning daemon: newline-delimited JSON over TCP and/or a
    UNIX socket, scheduling decompositions over a bounded worker pool
    behind a two-tier content-addressed result cache (``docs/serving.md``).
    ``repro serve --stats ADDRESS`` queries a running daemon instead.
query
    One decomposition request against a running daemon (the client side
    of ``serve``); repeated queries are answered from the daemon's cache.

Matrices are given either as a MatrixMarket file path or as
``collection:<name>[@scale]`` referring to the built-in test set, e.g.
``collection:ken-11@0.125``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
import scipy.sparse as sp

from repro.core.api import decompose
from repro.matrix.collection import load_collection_matrix
from repro.matrix.io import read_matrix_market
from repro.matrix.stats import matrix_stats
from repro.models import (
    decompose_2d_checkerboard,
    decompose_2d_jagged,
    decompose_2d_mondriaan,
)
from repro.partitioner import PartitionerConfig
from repro.spmv import communication_stats, simulate_spmv

__all__ = ["main", "load_matrix_arg"]

#: CLI model name -> unified decompose() method name (partitioner-backed)
_DECOMPOSE_METHODS = {
    "finegrain2d": "finegrain",
    "hypergraph1d": "columnnet",
    "rownet1d": "rownet",
    "graph": "graph",
}

_MODELS = {
    **{
        name: (
            lambda a, k, cfg, seed, _m=method: decompose(
                a, k, method=_m, config=cfg, seed=seed
            ).decomposition
        )
        for name, method in _DECOMPOSE_METHODS.items()
    },
    "checkerboard": lambda a, k, cfg, seed: decompose_2d_checkerboard(a, k),
    "jagged": lambda a, k, cfg, seed: decompose_2d_jagged(a, k, cfg, seed),
    "mondriaan": lambda a, k, cfg, seed: decompose_2d_mondriaan(a, k, cfg, seed),
}


def load_matrix_arg(spec: str) -> sp.csr_matrix:
    """Resolve a matrix argument: a path or ``collection:<name>[@scale]``."""
    if spec.startswith("collection:"):
        rest = spec[len("collection:"):]
        scale = 1.0
        if "@" in rest:
            rest, scale_s = rest.rsplit("@", 1)
            scale = float(scale_s)
        a = load_collection_matrix(rest, scale=scale)
    else:
        a = read_matrix_market(spec)
    # canonical form so nonzero ordering is stable across commands
    a = sp.csr_matrix(a)
    a.eliminate_zeros()
    a.sort_indices()
    return a


def _parse(argv):
    p = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("info", help="matrix structural statistics")
    pi.add_argument("matrix")

    pp = sub.add_parser("partition", help="decompose a matrix")
    pp.add_argument("matrix")
    pp.add_argument("-k", type=int, required=True, help="number of processors")
    pp.add_argument("--model", choices=sorted(_MODELS), default="finegrain2d")
    pp.add_argument("--epsilon", type=float, default=0.03)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--starts", type=int, default=1,
                    help="multi-start engine attempts (best cut wins)")
    pp.add_argument("--workers", type=int, default=1,
                    help="worker budget shared by starts and subtree tasks")
    pp.add_argument("--tree-parallel", action="store_true",
                    help="seed-tree recursion: schedule the two sides of "
                         "every bisection over the worker budget "
                         "(bit-identical at any worker count)")
    pp.add_argument("--output", default=None,
                    help="write ownership arrays (and the model partition, "
                         "when the model has one) to this .npz file")
    pp.add_argument("--verify", action="store_true",
                    help="audit the result with the independent oracles "
                         "before reporting; non-zero exit on failure")
    pp.add_argument("--retries", type=int, default=None, metavar="N",
                    help="retry a failed serial-backend engine start up to "
                         "N times with backoff (retries re-derive the "
                         "original seed: bit-identical results)")
    pp.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                    help="wall-clock budget for the multi-start sweep; past "
                         "it the best completed start is returned (marked "
                         "degraded) instead of raising")
    pp.add_argument("--checkpoint", default=None, metavar="PATH",
                    help="crash-resumable sweep checkpoint (NDJSON, written "
                         "atomically after every completed start)")
    pp.add_argument("--resume", action="store_true",
                    help="resume a previous sweep from --checkpoint (skips "
                         "the recorded starts); without this flag an "
                         "existing checkpoint file is cleared first")

    ps = sub.add_parser("spmv", help="simulate a distributed multiply")
    ps.add_argument("matrix")
    ps.add_argument("decomposition", help=".npz written by the partition command")
    ps.add_argument("--seed", type=int, default=0)

    pv = sub.add_parser(
        "verify", help="audit a saved partition with independent oracles"
    )
    pv.add_argument("matrix")
    pv.add_argument("decomposition", help=".npz written by the partition command")
    pv.add_argument("--epsilon", type=float, default=0.03)
    pv.add_argument("--exact", action="store_true",
                    help="also run the branch-and-bound exact bipartitioner "
                         "and report the true optimality gap (k=2 results "
                         "only; skipped with a note otherwise)")
    pv.add_argument("--exact-nodes", type=int, default=None, metavar="N",
                    help="node budget for the exact search; past it the gap "
                         "is reported against the best-found (unproven) "
                         "bound instead of a certified optimum")

    pa = sub.add_parser("analyze", help="per-processor decomposition report")
    pa.add_argument("matrix")
    pa.add_argument("-k", type=int, required=True)
    pa.add_argument("--model", choices=sorted(_MODELS), default="finegrain2d")
    pa.add_argument("--epsilon", type=float, default=0.03)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--starts", type=int, default=1)
    pa.add_argument("--workers", type=int, default=1)
    pa.add_argument("--tree-parallel", action="store_true")

    pf = sub.add_parser(
        "profile", help="trace a decomposition + simulated SpMV end to end"
    )
    pf.add_argument("matrix")
    pf.add_argument("-k", type=int, default=4, help="number of processors")
    pf.add_argument("--model", choices=sorted(_MODELS), default="finegrain2d")
    pf.add_argument("--epsilon", type=float, default=0.03)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--starts", type=int, default=1)
    pf.add_argument("--workers", type=int, default=1)
    pf.add_argument("--tree-parallel", action="store_true")
    pf.add_argument("--depth", type=int, default=4,
                    help="maximum span-tree depth to print")
    pf.add_argument("--trace", default=None,
                    help="write the NDJSON event log to this path")
    pf.add_argument("--json", dest="json_out", default=None,
                    help="write the flat JSON summary to this path")
    pf.add_argument("--no-spmv", action="store_true",
                    help="profile the partitioner only")

    pd = sub.add_parser("serve", help="run the partitioning daemon")
    pd.add_argument("--host", default="127.0.0.1")
    pd.add_argument("--port", type=int, default=None, metavar="PORT",
                    help="TCP listen port (0 = ephemeral, printed on the "
                         "ready line); omit for UNIX-socket-only")
    pd.add_argument("--unix", default=None, metavar="PATH",
                    help="UNIX domain socket path to listen on")
    pd.add_argument("--workers", type=int, default=2,
                    help="compute slots: concurrent decompositions")
    pd.add_argument("--queue-limit", type=int, default=64,
                    help="queued requests beyond this are refused")
    pd.add_argument("--per-client-limit", type=int, default=8,
                    help="one client's in-flight request bound")
    pd.add_argument("--cache-mem-mb", type=int, default=64,
                    help="memory tier budget of the result cache (MiB)")
    pd.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="disk tier directory (omit to disable)")
    pd.add_argument("--cache-disk-mb", type=int, default=1024,
                    help="disk tier budget (MiB)")
    pd.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                    help="default per-request deadline (degraded-result "
                         "SLO) for requests that carry none")
    pd.add_argument("--max-starts", type=int, default=16,
                    help="cap on per-request n_starts")
    pd.add_argument("--max-engine-workers", type=int, default=4,
                    help="cap on per-request engine workers")
    pd.add_argument("--trace", default=None, metavar="PATH",
                    help="append one NDJSON trace line per served request")
    pd.add_argument("--journal", default=None, metavar="PATH",
                    help="durable request journal: accepted requests are "
                         "recorded here before compute and replayed on "
                         "restart after a crash (omit to disable)")
    pd.add_argument("--drain-timeout", type=float, default=5.0,
                    metavar="SECONDS",
                    help="grace period for in-flight requests on shutdown")
    pd.add_argument("--allow-shutdown", action="store_true",
                    help="honour the in-band shutdown op")
    pd.add_argument("--epsilon", type=float, default=0.03,
                    help="base imbalance tolerance of the daemon's config")
    pd.add_argument("--stats", default=None, metavar="ADDRESS",
                    help="query a running daemon's statistics instead of "
                         "serving (host:port or UNIX socket path)")

    pq = sub.add_parser("query", help="one request against a running daemon")
    pq.add_argument("--connect", required=True, metavar="ADDRESS",
                    help="daemon address: host:port or UNIX socket path")
    pq.add_argument("matrix",
                    help="matrix path, collection:<name>[@scale], or "
                         "fingerprint:<hex> for a cache-only lookup")
    pq.add_argument("-k", type=int, default=None, help="number of processors")
    pq.add_argument("--model", choices=sorted(_DECOMPOSE_METHODS),
                    default="finegrain2d")
    pq.add_argument("--epsilon", type=float, default=None)
    pq.add_argument("--seed", type=int, default=None)
    pq.add_argument("--starts", type=int, default=None)
    pq.add_argument("--engine-workers", type=int, default=None)
    pq.add_argument("--deadline", type=float, default=None)
    pq.add_argument("--inline", action="store_true",
                    help="load the matrix locally and ship it inline "
                         "instead of naming a daemon-side path")
    pq.add_argument("--no-part", action="store_true",
                    help="skip the partition vector in the response")
    pq.add_argument("--output", default=None, metavar="PATH",
                    help="write the partition vector to this .npz file")
    return p.parse_args(argv)


def _config_from_args(args) -> PartitionerConfig:
    """Build the partitioner config from common CLI options."""
    import os

    kwargs = {}
    if getattr(args, "tree_parallel", False):
        # only force the knob when the flag is given, so the
        # REPRO_TREE_PARALLEL env default still applies otherwise
        kwargs["tree_parallel"] = True
    if getattr(args, "retries", None) is not None:
        kwargs["max_retries"] = args.retries
    if getattr(args, "deadline", None) is not None:
        kwargs["deadline"] = args.deadline
    checkpoint = getattr(args, "checkpoint", None)
    if checkpoint:
        if not getattr(args, "resume", False) and os.path.exists(checkpoint):
            # a fresh sweep must not silently resume yesterday's file
            os.remove(checkpoint)
        kwargs["checkpoint_path"] = checkpoint
    return PartitionerConfig(
        epsilon=args.epsilon,
        n_starts=getattr(args, "starts", 1),
        n_workers=getattr(args, "workers", 1),
        **kwargs,
    )


def _load_saved_decomposition(a: sp.csr_matrix, data) -> "Decomposition":
    """Rebuild a :class:`Decomposition` from a ``partition --output`` file.

    Older files carry no ``n`` entry; the matrix itself supplies the input
    dimension so rectangular decompositions round-trip correctly.
    """
    from repro.core.decomposition import Decomposition

    coo = sp.coo_matrix(a)
    return Decomposition(
        k=int(data["k"]),
        m=a.shape[0],
        n=int(data["n"]) if "n" in data else a.shape[1],
        nnz_row=coo.row.astype(np.int64),
        nnz_col=coo.col.astype(np.int64),
        nnz_val=coo.data.astype(np.float64),
        nnz_owner=data["nnz_owner"],
        x_owner=data["x_owner"],
        y_owner=data["y_owner"],
    )


def _cmd_verify(a: sp.csr_matrix, args) -> int:
    """The ``verify`` command: oracle-audit a saved partition file."""
    from types import SimpleNamespace

    from repro.verify import check_decomposition, verify_decompose

    data = np.load(args.decomposition)
    dec = _load_saved_decomposition(a, data)
    exact_kwargs = {}
    if getattr(args, "exact", False):
        exact_kwargs["exact_gap"] = True
        if args.exact_nodes is not None:
            exact_kwargs["exact_nodes"] = args.exact_nodes
    if "part" in data and "method" in data and "cutsize" in data:
        res = SimpleNamespace(
            method=str(data["method"]),
            k=dec.k,
            part=np.asarray(data["part"]),
            cutsize=int(data["cutsize"]),
            decomposition=dec,
        )
        report = verify_decompose(a, res, epsilon=args.epsilon, **exact_kwargs)
    else:
        # ownership arrays only (e.g. checkerboard/jagged models): the
        # decomposition-level invariants are still fully checkable
        report = check_decomposition(dec)
        if exact_kwargs:
            print("verify: --exact needs a partition vector in the file; skipped")
    print(report.summary())
    gap = report.extras.get("exact") if hasattr(report, "extras") else None
    if gap is not None:
        tag = "certified" if gap["proven"] else "unproven"
        print(
            f"optimality gap: {gap['gap']} ({tag}; cut={gap['cut']} "
            f"exact={gap['exact_cut']} nodes={gap['nodes']} "
            f"time={gap['runtime']:.3f}s)"
        )
    return 0 if report.passed else 1


def _cmd_profile(a: sp.csr_matrix, args) -> int:
    """The ``profile`` command: run everything under a real recorder."""
    from repro.telemetry import (
        render_tree,
        trace_to_dict,
        use_recorder,
        write_ndjson,
    )

    cfg = _config_from_args(args)
    with use_recorder() as rec:
        dec = _MODELS[args.model](a, args.k, cfg, args.seed)
        if not args.no_spmv:
            simulate_spmv(dec)

    print(render_tree(rec, max_depth=args.depth))
    phases = sorted(
        rec.durations_by_name(self_time=True).items(), key=lambda kv: -kv[1]
    )
    print()
    print("hot phases (self time):")
    for name, secs in phases[:10]:
        print(f"  {name:<24}{secs * 1e3:10.2f} ms")
    totals = rec.counter_totals()
    if totals:
        print()
        print("counters:")
        for name in sorted(totals):
            print(f"  {name:<24}{totals[name]}")
    if args.trace:
        n_lines = write_ndjson(rec, args.trace)
        print(f"\nwrote {args.trace} ({n_lines} lines)")
    if args.json_out:
        import json

        with open(args.json_out, "w") as f:
            json.dump(trace_to_dict(rec), f, indent=2)
        print(f"wrote {args.json_out}")
    return 0


def _cmd_serve(args) -> int:
    """The ``serve`` command: run the daemon (or query a running one)."""
    import json

    if args.stats:
        from repro.serve.client import Client

        with Client(args.stats) as client:
            print(json.dumps(client.stats(), indent=2, default=str))
        return 0

    from repro.serve import ServeConfig, run_server

    if args.port is None and not args.unix:
        print("serve: need --port and/or --unix", file=sys.stderr)
        return 2
    cfg = ServeConfig(
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        n_workers=args.workers,
        queue_limit=args.queue_limit,
        per_client_limit=args.per_client_limit,
        cache_mem_bytes=args.cache_mem_mb * 1024 * 1024,
        cache_dir=args.cache_dir,
        cache_disk_bytes=args.cache_disk_mb * 1024 * 1024,
        default_deadline=args.deadline,
        max_n_starts=args.max_starts,
        max_engine_workers=args.max_engine_workers,
        trace_path=args.trace,
        journal_path=args.journal,
        drain_timeout=args.drain_timeout,
        allow_shutdown=args.allow_shutdown,
        config=PartitionerConfig(epsilon=args.epsilon),
    )
    return run_server(cfg)


def _cmd_query(args) -> int:
    """The ``query`` command: one decompose request against a daemon."""
    from repro.serve.client import Client, ServeError

    matrix = args.matrix
    if args.inline and not matrix.startswith("fingerprint:"):
        matrix = load_matrix_arg(matrix)
    try:
        with Client(args.connect) as client:
            res = client.decompose(
                matrix,
                k=args.k,
                method=_DECOMPOSE_METHODS[args.model],
                seed=args.seed,
                epsilon=args.epsilon,
                n_starts=args.starts,
                engine_workers=args.engine_workers,
                deadline=args.deadline,
                want_part=not args.no_part,
            )
    except (ServeError, ConnectionError, OSError) as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 1
    served = res.served
    print(
        f"method={res.method} K={res.k} cutsize={res.cutsize} "
        f"imbalance={100 * res.imbalance:.2f}% "
        f"served={served.get('cache')} total={served.get('total_ms', 0):.1f}ms"
    )
    print(f"fingerprint={res.fingerprint}")
    if res.degraded:
        print(f"degraded: {res.degraded_reason}")
    if args.output and res.part is not None:
        np.savez(args.output, part=res.part, k=res.k,
                 fingerprint=res.fingerprint)
        print(f"wrote {args.output}")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _parse(argv if argv is not None else sys.argv[1:])

    # the service commands resolve (or forward) their matrix themselves
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "query":
        return _cmd_query(args)

    a = load_matrix_arg(args.matrix)

    if args.command == "info":
        print(matrix_stats(a, args.matrix).table1_row())
        return 0

    if args.command == "profile":
        return _cmd_profile(a, args)

    if args.command == "verify":
        return _cmd_verify(a, args)

    if args.command == "partition":
        cfg = _config_from_args(args)
        res = None
        if args.model in _DECOMPOSE_METHODS:
            res = decompose(
                a,
                args.k,
                method=_DECOMPOSE_METHODS[args.model],
                config=cfg,
                seed=args.seed,
                verify=False if args.verify else None,
            )
            dec = res.decomposition
        else:
            dec = _MODELS[args.model](a, args.k, cfg, args.seed)
        stats = communication_stats(dec)
        print(stats.summary())
        print(
            f"scaled: tot={stats.scaled_total_volume:.3f} "
            f"max={stats.scaled_max_volume:.3f}"
        )
        if res is not None and res.degraded:
            print(f"degraded: {res.degraded_reason}")
        if args.verify:
            from repro.verify import check_decomposition, verify_decompose

            report = (
                verify_decompose(a, res, epsilon=cfg.epsilon)
                if res is not None
                else check_decomposition(dec)
            )
            print(report.summary())
            if not report.passed:
                return 1
        if args.output:
            payload = dict(
                k=dec.k,
                m=dec.m,
                n=dec.n,
                nnz_owner=dec.nnz_owner,
                x_owner=dec.x_owner,
                y_owner=dec.y_owner,
            )
            if res is not None:
                payload.update(
                    part=res.part, cutsize=res.cutsize, method=res.method
                )
            np.savez(args.output, **payload)
            print(f"wrote {args.output}")
        return 0

    if args.command == "analyze":
        from repro.analysis import analyze_decomposition, render_report

        cfg = _config_from_args(args)
        dec = _MODELS[args.model](a, args.k, cfg, args.seed)
        print(render_report(analyze_decomposition(dec)))
        return 0

    # spmv
    data = np.load(args.decomposition)
    dec = _load_saved_decomposition(a, data)
    # the input vector lives in the matrix's column space (dec.n != dec.m
    # for rectangular decompositions)
    x = np.random.default_rng(args.seed).standard_normal(dec.n)
    res = simulate_spmv(dec, x)
    ok = np.allclose(res.y, a @ x)
    print(res.stats.summary())
    print(f"distributed result matches serial product: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
