"""Tests for the telemetry subsystem: spans, counters, recorders,
exporters, and the end-to-end instrumentation contract (telemetry must
observe the pipeline without changing it)."""

import io
import json
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro._util import Timer
from repro.telemetry import (
    NullRecorder,
    SpanRecord,
    TelemetryRecorder,
    get_recorder,
    read_ndjson,
    render_tree,
    set_recorder,
    trace_to_dict,
    use_recorder,
    write_ndjson,
)


@pytest.fixture(autouse=True)
def _restore_default_recorder():
    """Every test starts and ends with the no-op default active."""
    set_recorder(None)
    yield
    set_recorder(None)


def small_matrix(n=60, density=0.08, seed=0):
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=density, random_state=rng, format="lil")
    a.setdiag(1.0)
    return sp.csr_matrix(a)


class TestSpanNesting:
    def test_tree_structure(self):
        rec = TelemetryRecorder()
        with rec.span("a"):
            with rec.span("b"):
                pass
            with rec.span("c"):
                with rec.span("d"):
                    pass
        assert [r.name for r in rec.roots] == ["a"]
        (a,) = rec.roots
        assert [c.name for c in a.children] == ["b", "c"]
        assert [c.name for c in a.children[1].children] == ["d"]

    def test_durations_monotone(self):
        rec = TelemetryRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        outer = rec.roots[0]
        inner = outer.children[0]
        assert outer.t_end is not None and inner.t_end is not None
        assert outer.duration >= inner.duration >= 0.0
        assert outer.self_duration >= 0.0

    def test_exception_marks_and_closes_span(self):
        rec = TelemetryRecorder()
        with pytest.raises(ValueError):
            with rec.span("boom"):
                raise ValueError("x")
        span = rec.roots[0]
        assert span.error == "ValueError"
        assert span.t_end is not None
        # the stack unwound: a new span becomes a fresh root
        with rec.span("after"):
            pass
        assert [r.name for r in rec.roots] == ["boom", "after"]

    def test_attrs_set_late(self):
        rec = TelemetryRecorder()
        with rec.span("s", k=4) as sp_:
            sp_.set(cut=7)
        assert rec.roots[0].attrs == {"k": 4, "cut": 7}

    def test_multiple_roots(self):
        rec = TelemetryRecorder()
        with rec.span("first"):
            pass
        with rec.span("second"):
            pass
        assert [r.name for r in rec.roots] == ["first", "second"]


class TestCounters:
    def test_counters_attach_to_current_span(self):
        rec = TelemetryRecorder()
        with rec.span("outer"):
            rec.add("x", 2)
            with rec.span("inner"):
                rec.add("x", 3)
                rec.add("y")
        outer = rec.roots[0]
        assert outer.counters == {"x": 2}
        assert outer.children[0].counters == {"x": 3, "y": 1}
        assert rec.counter_totals() == {"x": 5, "y": 1}

    def test_orphan_counters(self):
        rec = TelemetryRecorder()
        rec.add("loose", 4)
        rec.gauge("g", 1.5)
        assert rec.counter_totals() == {"loose": 4}
        assert rec.orphan_gauges == {"g": 1.5}

    def test_gauge_last_write_wins(self):
        rec = TelemetryRecorder()
        with rec.span("s"):
            rec.gauge("shrink", 0.5)
            rec.gauge("shrink", 0.4)
        assert rec.roots[0].gauges == {"shrink": 0.4}

    def test_durations_by_name_self_time_partitions_wall_time(self):
        rec = TelemetryRecorder()
        with rec.span("a"):
            with rec.span("b"):
                pass
        by_name = rec.durations_by_name(self_time=True)
        total = rec.roots[0].duration
        assert by_name["a"] + by_name["b"] == pytest.approx(total, abs=1e-6)

    def test_thread_safety(self):
        rec = TelemetryRecorder()
        errors = []

        def work(i):
            try:
                for _ in range(50):
                    with rec.span(f"t{i}"):
                        rec.add("n")
            except Exception as e:  # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(rec.roots) == 200
        assert rec.counter_totals() == {"n": 200}


class TestNullRecorder:
    def test_noop_surface(self):
        rec = NullRecorder()
        with rec.span("anything", k=1) as sp_:
            sp_.set(a=1).add("c", 2)
            sp_.gauge("g", 0.5)
            assert sp_.duration == 0.0
        rec.add("x")
        rec.gauge("y", 1.0)
        # no state anywhere to assert on — the class has no storage at all
        assert not hasattr(rec, "roots")

    def test_default_recorder_is_null(self):
        assert isinstance(get_recorder(), NullRecorder)
        assert get_recorder().enabled is False

    def test_use_recorder_restores_previous(self):
        base = get_recorder()
        with use_recorder() as rec:
            assert get_recorder() is rec
            assert rec.enabled
        assert get_recorder() is base


class TestTimerShim:
    def test_timer_still_times(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed >= 0.0

    def test_unnamed_timer_records_nothing(self):
        with use_recorder() as rec:
            with Timer():
                pass
        assert rec.roots == []

    def test_named_timer_records_span(self):
        with use_recorder() as rec:
            with Timer("work", tag=1) as t:
                pass
        assert t.elapsed >= 0.0
        assert [r.name for r in rec.roots] == ["work"]
        assert rec.roots[0].attrs == {"tag": 1}


class TestExporters:
    def _trace(self):
        rec = TelemetryRecorder()
        with rec.span("a", k=4) as sp_:
            sp_.add("pins", 10)
            with rec.span("b"):
                rec.add("pins", 5)
                rec.gauge("shrink", 0.5)
        rec.add("orphan", 1)
        return rec

    def test_render_tree(self):
        rec = self._trace()
        text = render_tree(rec)
        assert "a" in text and "b" in text and "k=4" in text
        assert "pins=10" in text and "shrink=0.5" in text

    def test_render_tree_max_depth(self):
        rec = self._trace()
        text = render_tree(rec, max_depth=0)
        assert "b" not in text.replace("nested", "")
        assert "1 nested span(s)" in text

    def test_ndjson_roundtrip(self):
        rec = self._trace()
        buf = io.StringIO()
        n = write_ndjson(rec, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == n == 3  # header + 2 spans
        for line in lines:  # every line parses
            json.loads(line)
        buf.seek(0)
        roots, orphans = read_ndjson(buf)
        assert orphans == {"orphan": 1}
        (a,) = roots
        assert a.name == "a" and a.attrs == {"k": 4}
        assert a.counters == {"pins": 10}
        (b,) = a.children
        assert b.name == "b"
        assert b.counters == {"pins": 5} and b.gauges == {"shrink": 0.5}
        assert a.duration == pytest.approx(rec.roots[0].duration)

    def test_ndjson_file_path(self, tmp_path):
        rec = self._trace()
        path = str(tmp_path / "trace.ndjson")
        write_ndjson(rec, path)
        roots, _ = read_ndjson(path)
        assert roots[0].name == "a"

    def test_trace_to_dict_is_json_ready(self):
        rec = self._trace()
        d = trace_to_dict(rec)
        text = json.dumps(d)  # must not raise
        back = json.loads(text)
        assert back["counters"] == {"pins": 15, "orphan": 1}
        assert set(back["phases"]) == {"a", "b"}
        assert [s["name"] for s in back["spans"]] == ["a", "b"]


class TestPipelineIntegration:
    def test_partition_bit_identical_with_and_without_telemetry(self):
        from repro.core.finegrain import build_finegrain_model
        from repro.partitioner import partition_hypergraph

        a = small_matrix()
        h = build_finegrain_model(a).hypergraph
        base = partition_hypergraph(h, 4, seed=123)
        again = partition_hypergraph(h, 4, seed=123)
        np.testing.assert_array_equal(base.part, again.part)
        with use_recorder():
            traced = partition_hypergraph(h, 4, seed=123)
        np.testing.assert_array_equal(base.part, traced.part)
        assert traced.cutsize == base.cutsize

    def test_partition_trace_covers_all_phases(self):
        from repro.core.finegrain import build_finegrain_model
        from repro.partitioner import partition_hypergraph

        a = small_matrix()
        h = build_finegrain_model(a).hypergraph
        with use_recorder() as rec:
            partition_hypergraph(h, 4, seed=0)
        names = {s.name for root in rec.roots for s, _ in root.walk()}
        for expected in (
            "partition",
            "bisection",
            "coarsen",
            "coarsen.level",
            "initial",
            "refine.fm",
            "uncoarsen",
        ):
            assert expected in names, f"missing span {expected!r}"
        totals = rec.counter_totals()
        assert totals.get("fm.passes", 0) > 0
        assert totals.get("coarsen.pins_visited", 0) > 0

    def test_fm_spans_carry_their_share_of_fm_counters(self):
        from repro.core.finegrain import build_finegrain_model
        from repro.partitioner import partition_hypergraph

        h = build_finegrain_model(small_matrix()).hypergraph
        base = partition_hypergraph(h, 4, seed=5)
        with use_recorder() as rec:
            traced = partition_hypergraph(h, 4, seed=5)
        np.testing.assert_array_equal(base.part, traced.part)
        fm = [s for root in rec.roots for s, _ in root.walk() if s.name == "refine.fm"]
        assert fm
        names = {"passes": "fm.passes", "moves": "fm.moves", "rollbacks": "fm.rollbacks"}
        for span in fm:
            for attr, counter in names.items():
                assert span.attrs[attr] == span.counters.get(counter, 0)
        totals = rec.counter_totals()
        for attr, counter in names.items():
            assert sum(s.attrs[attr] for s in fm) == totals[counter]
        assert totals["fm.moves"] > 0 and totals["fm.rollbacks"] > 0

    def test_graph_fm_counts_fm_counters(self):
        from repro.graph import edge_cut, partition_graph
        from repro.models.graph_model import build_standard_graph_model

        g = build_standard_graph_model(small_matrix()).graph
        base = partition_graph(g, 4, seed=5)
        with use_recorder() as rec:
            traced = partition_graph(g, 4, seed=5)
        np.testing.assert_array_equal(base.part, traced.part)
        totals = rec.counter_totals()
        assert totals["fm.passes"] > 0 and totals["fm.moves"] > 0
        assert totals["fm.rollbacks"] > 0
        assert 0 <= totals.get("fm.idle_passes", 0) <= totals["fm.passes"]
        assert totals["fm.cut_delta"] > 0
        assert edge_cut(g, traced.part) == traced.edge_cut
        # graph FM opens no hypergraph FM span
        names = {s.name for root in rec.roots for s, _ in root.walk()}
        assert "graph.partition" in names and "refine.fm" not in names

    def test_spmv_counters_match_communication_stats(self):
        from repro.core.api import decompose_2d_finegrain
        from repro.spmv import communication_stats

        a = small_matrix()
        dec, _ = decompose_2d_finegrain(a, 4, seed=0)
        with use_recorder() as rec:
            stats = communication_stats(dec)
        totals = rec.counter_totals()
        assert totals["spmv.expand.words"] == stats.expand_volume
        assert totals["spmv.fold.words"] == stats.fold_volume
        assert totals["spmv.expand.msgs"] == int(stats.expand_msgs.sum())
        assert totals["spmv.fold.msgs"] == int(stats.fold_msgs.sum())

    def test_parallel_spmv_planned_counters_match_stats(self):
        from repro.core.api import decompose_2d_finegrain
        from repro.spmv import communication_stats
        from repro.spmv.parallel import parallel_spmv

        a = small_matrix(n=30)
        dec, _ = decompose_2d_finegrain(a, 2, seed=0)
        x = np.random.default_rng(1).standard_normal(dec.n)
        stats = communication_stats(dec)
        with use_recorder() as rec:
            y = parallel_spmv(dec, x)
        np.testing.assert_allclose(y, a @ x, atol=1e-10)
        root = rec.roots[0]
        assert root.name == "spmv.parallel"
        assert root.counters["spmv.expand.words"] == stats.expand_volume
        assert root.counters["spmv.fold.words"] == stats.fold_volume

    def test_bench_runner_profile_breakdown(self):
        from repro.bench.runner import run_instance

        a = small_matrix()
        r = run_instance(a, "tiny", 2, "finegrain2d", n_seeds=1, profile=True)
        assert r.phase_times and r.counters
        assert "refine.fm" in r.phase_times
        assert r.counters.get("fm.passes", 0) > 0
        # un-profiled rows stay lean
        r0 = run_instance(a, "tiny", 2, "finegrain2d", n_seeds=1)
        assert r0.phase_times is None and r0.counters is None


class TestProfileCli:
    def test_profile_command(self, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "t.ndjson")
        jout = str(tmp_path / "t.json")
        code = main([
            "profile", "collection:sherman3@0.05", "-k", "4",
            "--trace", trace, "--json", jout,
        ])
        assert code == 0
        out = capsys.readouterr().out
        for phase in ("partition", "coarsen", "initial", "refine.fm",
                      "spmv.simulate", "hot phases", "counters:"):
            assert phase in out
        roots, _ = read_ndjson(trace)
        names = {s.name for root in roots for s, _ in root.walk()}
        assert {"partition", "coarsen", "initial", "refine.fm"} <= names
        assert all(
            s.duration >= 0 for root in roots for s, _ in root.walk()
        )
        flat = json.load(open(jout))
        assert flat["phases"] and flat["counters"]


def _documented_names(doc: str) -> tuple[set[str], set[str]]:
    """``(spans, counters)`` named in docs/telemetry.md's vocabulary.

    Span rows may list several names in their first cell; a name that
    starts with ``.`` extends the row's first name
    (``spmv.stats`` (+ ``.expand``) means ``spmv.stats.expand``).
    """
    import re

    tick = re.compile(r"`([^`]+)`")
    spans: set[str] = set()
    table = doc.split("| span | where | attrs |", 1)[1].split("\n\n", 1)[0]
    for row in table.splitlines()[2:]:
        names = tick.findall(row.split("|")[1])
        spans.update(n if not n.startswith(".") else names[0] + n for n in names)
    section = doc.split("## Counter naming conventions", 1)[1].split("\n## ", 1)[0]
    counters = {
        n for n in tick.findall(section) if re.fullmatch(r"[a-z_]+(\.[a-z_]+)+", n)
    }
    return spans, counters


class TestVocabulary:
    """Every span and counter a traced ``decompose()`` emits is listed in
    docs/telemetry.md, the vocabulary trace tooling reads."""

    @staticmethod
    def _traced(config_kw: dict, method: str = "finegrain"):
        from repro.core.api import decompose
        from repro.partitioner import PartitionerConfig

        cfg = PartitionerConfig(**config_kw)
        with use_recorder() as rec:
            decompose(small_matrix(80, 0.06), 4, method=method, config=cfg, seed=0)
        emitted = {s.name for root in rec.roots for s, _ in root.walk()}
        return emitted, rec.counter_totals()

    @staticmethod
    def _assert_documented(emitted: set, counted: dict) -> None:
        from pathlib import Path

        doc = Path(__file__).parents[1] / "docs" / "telemetry.md"
        spans, counters = _documented_names(doc.read_text())
        assert emitted - spans == set()
        assert set(counted) - counters == set()

    @pytest.mark.parametrize("method", ["finegrain", "columnnet"])
    def test_emitted_names_are_documented(self, method):
        emitted, counted = self._traced(
            dict(kway_refine=True, initial_method="exact", tree_parallel=False,
                 coarsen_to=16),
            method,
        )
        # the run reaches the spans this test exists for
        assert {"coarsen.match", "initial.exact", "uncoarsen.level", "kway"} <= emitted
        self._assert_documented(emitted, counted)

    def test_multistart_names_are_documented(self):
        emitted, counted = self._traced(
            dict(n_starts=2, n_workers=1, tree_parallel=False)
        )
        assert {"engine", "engine.start"} <= emitted
        assert {"engine.starts", "engine.best_cut", "engine.cut_spread"} <= set(
            counted
        )
        self._assert_documented(emitted, counted)

    def test_crashed_start_names_are_documented(self, monkeypatch):
        # every start child crashes through the environment's plan, and
        # the parent recomputes each start inline
        monkeypatch.setenv("REPRO_FAULTS", "engine.start:crash@all")
        emitted, counted = self._traced(
            dict(n_starts=2, n_workers=2, start_backend="process",
                 tree_parallel=False)
        )
        assert counted.get("engine.start_failures") == 2
        self._assert_documented(emitted, counted)

    def test_tree_parallel_names_are_documented(self, monkeypatch):
        from repro.partitioner import pool

        # ship every subtree the frontier allows, however small
        monkeypatch.setattr(pool, "_SPAWN_MIN_VERTICES", 1)
        emitted, counted = self._traced(
            dict(tree_parallel=True, n_workers=2, start_backend="process")
        )
        assert counted.get("tree.tasks_spawned", 0) >= 1
        self._assert_documented(emitted, counted)

    def test_served_miss_and_hit_names_are_documented(self, tmp_path):
        import asyncio
        from pathlib import Path

        from repro.serve.protocol import inline_matrix
        from repro.serve.service import PartitionService, ServeConfig

        trace = tmp_path / "trace.ndjson"
        service = PartitionService(
            ServeConfig(port=None, n_workers=1, trace_path=str(trace))
        )
        obj = {"op": "decompose", "matrix": {"inline": inline_matrix(small_matrix())},
               "k": 4, "seed": 0}

        async def miss_then_hit():
            return [await service.handle(dict(obj), "c") for _ in range(2)]

        try:
            miss, hit = asyncio.run(miss_then_hit())
        finally:
            service.close()
        assert [miss["served"]["cache"], hit["served"]["cache"]] == [
            "computed", "hit-memory",
        ]
        telemetry = [
            line["telemetry"]
            for line in map(json.loads, trace.read_text().splitlines())
            if line["type"] == "request"
        ]
        spans = [{s["name"]: s["attrs"] for s in t["spans"]} for t in telemetry]
        # the hit found its fingerprint in the memo: nothing was decoded
        assert spans[0]["serve.fingerprint"]["memo"] is False
        assert spans[1]["serve.fingerprint"]["memo"] is True
        assert {"serve.decode", "serve.compute"} <= set(spans[0])
        assert "serve.decode" not in spans[1]
        emitted = set(spans[0]) | set(spans[1])
        counted = {**telemetry[0]["counters"], **telemetry[1]["counters"]}
        self._assert_documented(emitted, counted)
        doc = (Path(__file__).parents[1] / "docs" / "telemetry.md").read_text()
        for name in ("fingerprint_memo_hits", "fingerprint_memo_misses"):
            assert f"`{name}`" in doc
