"""Tests for the experiment harness (runner, tables, summary, CLI)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bench import (
    InstanceResult,
    format_table1,
    format_table2,
    run_instance,
    run_table2,
    summarize_table2,
)
from repro.bench.runner import model_averages
from repro.matrix import load_collection_matrix, paper_table1
from repro.partitioner import PartitionerConfig


@pytest.fixture(scope="module")
def tiny_matrix():
    rng = np.random.default_rng(0)
    a = sp.random(80, 80, density=0.06, random_state=rng, format="lil")
    a.setdiag(1.0)
    return sp.csr_matrix(a)


@pytest.fixture(scope="module")
def tiny_results(tiny_matrix):
    return run_table2(
        {"tiny": tiny_matrix}, ks=(4,), n_seeds=2,
        config=PartitionerConfig(), base_seed=0,
    )


class TestRunner:
    def test_run_instance_fields(self, tiny_matrix):
        r = run_instance(tiny_matrix, "tiny", 4, "finegrain2d", n_seeds=2)
        assert r.matrix == "tiny" and r.k == 4
        assert r.tot > 0 and r.max > 0
        assert r.time > 0
        assert r.n_seeds == 2

    def test_unknown_model(self, tiny_matrix):
        with pytest.raises(KeyError, match="unknown model"):
            run_instance(tiny_matrix, "tiny", 2, "bogus")

    def test_table2_covers_grid(self, tiny_results):
        assert len(tiny_results) == 3  # 1 matrix x 1 K x 3 models
        assert {r.model for r in tiny_results} == {
            "graph", "hypergraph1d", "finegrain2d",
        }

    def test_averages(self, tiny_results):
        avgs = model_averages(tiny_results, ks=(4,))
        # per-K rows plus overall per model
        assert len(avgs) == 6
        overall = [a for a in avgs if a.k == 0]
        assert len(overall) == 3


class TestFormatters:
    def test_table1_with_paper_columns(self):
        a = load_collection_matrix("sherman3", scale=0.1, seed=0)
        text = format_table1({"sherman3": a}, paper_table1())
        assert "sherman3" in text
        assert "(paper)" in text
        assert "20033" in text  # the paper's nnz appears

    def test_table2_layout(self, tiny_results):
        text = format_table2(tiny_results)
        assert "Standard Graph Model" in text
        assert "2D Fine-Grain HG Model" in text
        assert "Averages" in text
        assert "(" in text  # normalized times present

    def test_table2_handles_missing_models(self, tiny_results):
        only_fg = [r for r in tiny_results if r.model == "finegrain2d"]
        text = format_table2(only_fg)
        assert "Fine-Grain" in text


class TestSummary:
    def test_math(self):
        mk = lambda model, tot, msgs, time: InstanceResult(
            "m", 16, model, 1, tot, tot / 4, msgs, time, 0.0, 0.0
        )
        results = [
            mk("graph", 2.0, 10, 1.0),
            mk("hypergraph1d", 1.0, 10, 3.0),
            mk("finegrain2d", 0.5, 16, 7.0),
        ]
        s = summarize_table2(results)
        assert s.improvement_vs_graph == pytest.approx(75.0)
        assert s.improvement_vs_hypergraph1d == pytest.approx(50.0)
        assert s.msg_bound_ok == 1.0
        assert s.time_ratio_vs_graph["finegrain2d"] == pytest.approx(7.0)
        assert s.finegrain_win_rate == 1.0
        assert "43%" in s.report()

    def test_bound_violation_detected(self):
        bad = InstanceResult("m", 4, "graph", 1, 1.0, 0.5, 99.0, 1.0, 0.0, 0.0)
        s = summarize_table2([bad])
        assert s.msg_bound_ok == 0.0

    def test_on_real_run(self, tiny_results):
        s = summarize_table2(tiny_results)
        assert s.msg_bound_ok == 1.0
        assert np.isfinite(s.improvement_vs_graph)


class TestCli:
    def test_table1_command(self, capsys):
        from repro.bench.__main__ import main

        rc = main(["table1", "--scale", "0.05", "--matrices", "sherman3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sherman3" in out

    def test_unknown_matrix_rejected(self, capsys):
        from repro.bench.__main__ import main

        assert main(["table1", "--matrices", "nope"]) == 2

    def test_summary_command(self, capsys):
        from repro.bench.__main__ import main

        rc = main([
            "summary", "--scale", "0.03", "--seeds", "1",
            "--matrices", "sherman3", "--ks", "4",
        ])
        assert rc == 0
        assert "improvement" in capsys.readouterr().out


class TestVcycleBench:
    def test_document_reports_routes_and_build_counts(self, monkeypatch, tiny_matrix):
        """The V-cycle record runs at the paper's K=64 by default, checks
        the repeats agree, and splits time by route and builds by outcome."""
        from repro.bench import vcycle

        monkeypatch.setattr(
            vcycle, "_instances",
            lambda quick: (("tiny", tiny_matrix, "tiny_matrix", "finegrain"),),
        )
        doc = vcycle.run_vcycle_bench(repeats=2)
        assert doc["k"] == 64 and doc["summary"]["all_deterministic"]
        row = doc["instances"]["tiny"]
        assert row["matrix"]["source"] == "tiny_matrix"
        assert doc["summary"]["seconds_by_instance"] == {"tiny": row["seconds"]}
        assert set(row["routes"]) <= {
            "coarsen.match/single-term", "coarsen.match/product",
            "kway/flat-sweep", "kway/reference",
        }
        assert "coarsen.match/single-term" in row["routes"]
        build = row["coarse_build"]
        assert build["levels"] > 0 and build["dropped"] > 0
