"""Command-line front end: ``python -m repro.bench <command>``.

Commands
--------
table1
    Print the structural statistics of the (synthesized) test matrices next
    to the paper's Table 1 numbers.
table2
    Run the full model comparison and print it in the paper's Table 2
    layout.
summary
    Run table2 and print the §4 headline aggregates.
models2d
    Compare four generations of 2D decomposition (checkerboard, jagged,
    Mondriaan, fine-grain) on each matrix — quantifying the paper's §1
    claim about prior 2D schemes.
experiments
    Run the table2 sweep and write EXPERIMENTS.md with every measurement
    next to the paper's published value (see ``--output``).
vcycle
    End-to-end ``decompose()`` benchmark at K=64 with a telemetry phase
    breakdown (matching, coarse build, initial, FM, K-way) and the
    self time of each matching and K-way route; write
    BENCH_vcycle.json.  ``--quick`` shrinks the instances to a CI smoke.
    Exits 1 if two repeats of an instance produce different partitions.
verify
    Differential replay: run the same decomposition across every
    execution backend (serial / process, legacy vs seed-tree recursion,
    with and without K-way refinement), diff partitions bit for bit
    within each determinism universe, and write a JSON replay report.
    Exits 1 on any divergence.
serve
    Boot a real ``repro serve`` daemon and drive it with a mixed
    hit/miss/dedup workload from concurrent clients (plus one
    deadline-degraded request and, with ``--faults``, one request that
    must survive an injected worker crash); write BENCH_serve.json.
    Exits 1 when any correctness check fails.
chaos
    Run the serve-layer fault schedule against live daemons — baseline
    load, daemon SIGKILL mid-compute + warm restart (journal replay),
    disk cache corruption, journal-write failure, engine worker kill —
    comparing every served partition byte-for-byte against local
    goldens; write BENCH_chaos.json.  ``--quick`` shrinks the load to a
    CI smoke.  Exits 1 on any byte divergence, failed recovery, or
    leaked shm/tmp resource.
exact
    Certify the optimal bipartition of every model of a tiny-matrix
    corpus with the branch-and-bound solver, then report the multilevel
    heuristic's optimality gap per model and seed (plus B&B nodes and
    time-to-certify); write BENCH_exact.json.  Exits 1 if any heuristic
    key lexicographically beats a certified optimum — impossible unless
    the exact solver is wrong.

Common options: ``--scale`` (matrix size factor, default 0.125 so a laptop
finishes in minutes; 1.0 reproduces the original sizes), ``--ks``,
``--seeds``, ``--matrices``, ``--epsilon``.

The table sweeps (``table2`` / ``summary`` / ``experiments``) accept
``--checkpoint DIR`` to keep one engine checkpoint file per
(matrix, K, model, seed) cell; a killed sweep rerun with ``--resume``
completes at the cell — and the start — where it died (see
``docs/resilience.md``).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.runner import TABLE2_KS, run_table2
from repro.bench.summary import summarize_table2
from repro.bench.tables import format_table1, format_table2
from repro.matrix.collection import (
    collection_names,
    load_collection_matrix,
    paper_table1,
)
from repro.partitioner import PartitionerConfig

__all__ = ["main"]


def _parse(argv):
    p = argparse.ArgumentParser(prog="python -m repro.bench", description=__doc__)
    p.add_argument(
        "command",
        choices=[
            "table1", "table2", "summary", "models2d", "experiments",
            "verify", "serve", "vcycle", "exact", "chaos",
        ],
    )
    p.add_argument("--quick", action="store_true",
                   help="vcycle/chaos commands: small instances / reduced "
                        "load (CI smoke)")
    p.add_argument("--output", default="EXPERIMENTS.md",
                   help="output path for the experiments command")
    p.add_argument("--export", default=None,
                   help="also write table2 results to this .csv or .tex file")
    p.add_argument("--scale", type=float, default=0.125,
                   help="matrix scale factor (1.0 = paper-size)")
    p.add_argument("--ks", type=int, nargs="+", default=list(TABLE2_KS))
    p.add_argument("--seeds", type=int, default=3,
                   help="partitioner seeds per instance (paper: 50)")
    p.add_argument("--matrices", nargs="+", default=None,
                   help="subset of collection matrices (default: all 14)")
    p.add_argument("--epsilon", type=float, default=0.03)
    p.add_argument("--matrix-seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=4,
                   help="verify command: engine starts per instance")
    p.add_argument("--workers", type=int, default=4,
                   help="verify/serve/chaos commands: process-backend workers")
    p.add_argument("--profile", action="store_true",
                   help="record telemetry and print a per-phase time "
                        "breakdown for every instance")
    p.add_argument("--profile-json", default=None,
                   help="with --profile, also write the per-instance phase "
                        "times and counters to this JSON file")
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="table2/summary/experiments: keep one engine "
                        "checkpoint file per (matrix, K, model, seed) cell "
                        "in DIR so a killed sweep can be resumed")
    p.add_argument("--resume", action="store_true",
                   help="with --checkpoint, resume a previously "
                        "interrupted sweep instead of clearing its "
                        "checkpoint files")
    p.add_argument("--clients", type=int, default=4,
                   help="serve command: concurrent load-generator clients")
    p.add_argument("--requests", type=int, default=8,
                   help="serve command: distinct requests per phase")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="serve command: REPRO_FAULTS spec for the daemon "
                        "(e.g. worker.heartbeat:crash@2)")
    return p.parse_args(argv)


def _print_profile(results) -> None:
    """Per-instance phase breakdown recorded by ``--profile``."""
    print()
    print("per-phase self time (mean seconds per seed):")
    for r in results:
        if not r.phase_times:
            continue
        top = sorted(r.phase_times.items(), key=lambda kv: -kv[1])[:6]
        cells = " ".join(f"{name}={secs * 1e3:.1f}ms" for name, secs in top)
        print(f"  {r.matrix:<12} K={r.k:<3} {r.model:<12} {cells}")


def _write_profile_json(results, path: str) -> None:
    import json

    rows = [
        {
            "matrix": r.matrix,
            "k": r.k,
            "model": r.model,
            "n_seeds": r.n_seeds,
            "time": r.time,
            "phases": r.phase_times,
            "counters": r.counters,
        }
        for r in results
    ]
    with open(path, "w") as f:
        json.dump(rows, f, indent=2)
    print(f"wrote {path}")


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = _parse(argv if argv is not None else sys.argv[1:])

    if args.command == "vcycle":
        from repro.bench.vcycle import run_vcycle_bench, write_vcycle_bench

        doc = run_vcycle_bench(
            repeats=args.seeds,
            quick=args.quick,
            progress=lambda s: print(f"  {s}", file=sys.stderr),
        )
        path = args.output if args.output != "EXPERIMENTS.md" else "BENCH_vcycle.json"
        write_vcycle_bench(path, doc)
        print(f"wrote {path}")
        summary = doc["summary"]
        print(
            f"e2e seconds: {summary['seconds_by_instance']} "
            f"(deterministic: {summary['all_deterministic']})"
        )
        return 0 if summary["all_deterministic"] else 1

    if args.command == "serve":
        from repro.bench.serve import run_serve_bench, write_serve_bench

        doc = run_serve_bench(
            n_workers=args.workers,
            n_clients=args.clients,
            n_distinct=args.requests,
            faults=args.faults,
            progress=lambda s: print(f"  {s}", file=sys.stderr),
        )
        path = args.output if args.output != "EXPERIMENTS.md" else "BENCH_serve.json"
        write_serve_bench(path, doc)
        print(f"wrote {path}")
        checks = doc["checks"]
        ok = (
            checks["hit_parts_identical"]
            and checks["dedup_parts_identical"]
            and checks["daemon_exit_code"] == 0
            and not checks["shm_leaked"]
            and not checks["errors"]
            and checks["fault_survived"] is not False
        )
        print(
            f"rps={doc['requests_per_sec']:.1f} "
            f"hit_rate={doc['hit_rate']:.2f} "
            f"degraded={checks['deadline_degraded']} checks={'OK' if ok else 'FAILED'}"
        )
        return 0 if ok else 1

    if args.command == "chaos":
        from repro.bench.chaos import (
            chaos_checks_ok,
            run_chaos_bench,
            write_chaos_bench,
        )

        doc = run_chaos_bench(
            n_workers=min(args.workers, 2),
            n_clients=args.clients,
            n_distinct=args.requests,
            quick=args.quick,
            progress=lambda s: print(f"  {s}", file=sys.stderr),
        )
        path = args.output if args.output != "EXPERIMENTS.md" else "BENCH_chaos.json"
        write_chaos_bench(path, doc)
        print(f"wrote {path}")
        ok = chaos_checks_ok(doc)
        checks = doc["checks"]
        print(
            f"availability={doc['availability']:.3f} "
            f"byte_divergence={doc['byte_divergence']} "
            f"recovery_s={doc['schedule'][1]['recovery_s']} "
            f"replays={doc['schedule'][1]['replays']} "
            f"checks={'OK' if ok else 'FAILED'}"
        )
        for err in checks["errors"]:
            print(f"  ERROR: {err}", file=sys.stderr)
        return 0 if ok else 1

    if args.command == "exact":
        from repro.bench.exact import run_exact_bench, write_exact_bench

        doc = run_exact_bench(
            n_seeds=args.seeds,
            progress=lambda s: print(f"  {s}", file=sys.stderr),
        )
        path = args.output if args.output != "EXPERIMENTS.md" else "BENCH_exact.json"
        write_exact_bench(path, doc)
        print(f"wrote {path}")
        summary, checks = doc["summary"], doc["checks"]
        ok = checks["no_impossible_wins"] and checks["all_certified"]
        print(
            f"instances={summary['instances']} "
            f"mean_gap ghg={summary['mean_gap_ghg']} "
            f"exact-initial={summary['mean_gap_exact_initial']} "
            f"optimal_rate ghg={summary['optimal_rate_ghg']} "
            f"exact-initial={summary['optimal_rate_exact_initial']} "
            f"checks={'OK' if ok else 'FAILED'}"
        )
        if checks["impossible_wins"]:
            for line in checks["impossible_wins"]:
                print(f"  IMPOSSIBLE: {line}", file=sys.stderr)
        if checks["unproven"]:
            for label in checks["unproven"]:
                print(f"  UNPROVEN: {label}", file=sys.stderr)
        return 0 if ok else 1

    if args.command == "verify":
        from repro.verify import replay_decompose, write_replay_report

        names = args.matrices or ["sherman3", "bcspwr10"]
        unknown = set(names) - set(collection_names())
        if unknown:
            print(f"unknown matrices: {sorted(unknown)}", file=sys.stderr)
            return 2
        reports = []
        for name in names:
            a = load_collection_matrix(name, scale=args.scale, seed=args.matrix_seed)
            print(f"  replaying {name}", file=sys.stderr)
            rep = replay_decompose(
                a,
                args.ks[0],
                seed=0,
                n_starts=args.starts,
                n_workers=args.workers,
                epsilon=args.epsilon,
                matrix_label=name,
            )
            print(rep.summary())
            reports.append(rep)
        path = (
            args.output if args.output != "EXPERIMENTS.md"
            else "BENCH_verify_replay.json"
        )
        write_replay_report(path, reports)
        print(f"wrote {path}")
        return 0 if all(r.passed for r in reports) else 1

    names = args.matrices or collection_names()
    unknown = set(names) - set(collection_names())
    if unknown:
        print(f"unknown matrices: {sorted(unknown)}", file=sys.stderr)
        return 2
    matrices = {
        n: load_collection_matrix(n, scale=args.scale, seed=args.matrix_seed)
        for n in names
    }

    if args.command == "table1":
        print(f"Table 1 (generated at scale={args.scale} | paper originals)")
        print(format_table1(matrices, paper_table1()))
        return 0

    if args.command == "models2d":
        _run_models2d(matrices, args)
        return 0

    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint DIR", file=sys.stderr)
        return 2
    cfg = PartitionerConfig(epsilon=args.epsilon)
    results = run_table2(
        matrices,
        ks=args.ks,
        n_seeds=args.seeds,
        config=cfg,
        progress=lambda s: print(f"  running {s}", file=sys.stderr),
        profile=args.profile,
        checkpoint_dir=args.checkpoint,
        resume=args.resume,
    )
    if args.command == "table2":
        print(
            f"Table 2 (scale={args.scale}, seeds={args.seeds}, "
            f"eps={args.epsilon}; volumes scaled by #rows)"
        )
        print(format_table2(results))
        if args.export:
            from repro.bench.export import results_to_csv, results_to_latex

            text = (
                results_to_latex(results)
                if args.export.endswith(".tex")
                else results_to_csv(results)
            )
            with open(args.export, "w") as f:
                f.write(text)
            print(f"exported {args.export}")
    elif args.command == "experiments":
        import platform

        from repro.bench.experiments import render_experiments_md

        text = render_experiments_md(
            results, matrices, args.scale, args.seeds,
            host_note=f"{platform.machine()} / Python {platform.python_version()}",
        )
        with open(args.output, "w") as f:
            f.write(text)
        print(f"wrote {args.output}")
    else:
        print(summarize_table2(results).report())
    if args.profile:
        _print_profile(results)
        if args.profile_json:
            _write_profile_json(results, args.profile_json)
    return 0


def _run_models2d(matrices, args) -> None:
    """Checkerboard vs jagged vs fine-grain on each matrix (A5)."""
    from repro.core.api import decompose_2d_finegrain
    from repro.models import (
        decompose_2d_checkerboard,
        decompose_2d_jagged,
        decompose_2d_mondriaan,
    )
    from repro.spmv import communication_stats

    k = args.ks[0]
    print(f"2D decomposition methods at K={k} (scale={args.scale}):")
    print(
        f"{'matrix':<12} | {'checkerboard':^22} | {'jagged':^22} "
        f"| {'mondriaan':^22} | {'fine-grain':^22}"
    )
    print(
        f"{'':<12} | " + " | ".join(f"{'vol':>9} {'#msgs':>6} {'imb%':>5}" for _ in range(4))
    )
    for name, a in matrices.items():
        cells = []
        for make in (
            lambda: decompose_2d_checkerboard(a, k),
            lambda: decompose_2d_jagged(a, k, seed=0),
            lambda: decompose_2d_mondriaan(a, k, seed=0),
            lambda: decompose_2d_finegrain(a, k, seed=0)[0],
        ):
            stats = communication_stats(make())
            cells.append(
                f"{stats.total_volume:>9} {stats.avg_messages:>6.1f} "
                f"{100 * stats.load_imbalance:>5.1f}"
            )
        print(f"{name:<12} | " + " | ".join(cells))


if __name__ == "__main__":
    raise SystemExit(main())
