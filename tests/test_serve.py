"""The partitioning service (:mod:`repro.serve`): cache, scheduling,
protocol, transport.

The contract under test: a response is a pure function of the request
fingerprint — whether it was computed, answered from either cache tier,
or shared with a deduplicated waiter, the canonical result document is
byte-identical; and concurrent requests never perturb each other's bits
(the reentrancy refactor's regression tests live here too).
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.cache import CacheEntry, PartitionCache
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    canonical_result_bytes,
    decode_msg,
    encode_msg,
    inline_matrix,
    matrix_from_inline,
    parse_decompose,
    part_from_b64,
    part_to_b64,
)
from repro.serve.service import PartitionService, ServeConfig


def entry(fp: str, n: int = 100, meta: dict | None = None) -> CacheEntry:
    return CacheEntry(
        fingerprint=fp,
        part=np.arange(n, dtype=np.int64),
        meta=meta if meta is not None else {"k": 4},
    )


@pytest.fixture
def a():
    return sp.random(60, 60, density=0.08, format="csr", random_state=0)


def service_cfg(tmp_path, **kw) -> ServeConfig:
    kw.setdefault("port", None)
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    return ServeConfig(**kw)


def req(a, seed=0, k=4, **kw) -> dict:
    return {
        "op": "decompose",
        "matrix": {"inline": inline_matrix(a)},
        "k": k,
        "seed": seed,
        **kw,
    }


def run_service(coro_fn, cfg: ServeConfig):
    """Run an async scenario against a fresh service, then tear it down."""
    service = PartitionService(cfg)
    try:
        return asyncio.run(coro_fn(service))
    finally:
        service.close()


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
#: anything JSON can carry where an inline spec expects something else
_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
)
#: row/column counts: small, negative, past the line cap, or not a count
# (nothing between 64 and the cap, so no draw allocates much)
_dims = st.one_of(
    st.integers(-3, 64), st.integers(MAX_LINE_BYTES // 8 + 1, 2**80),
    st.sampled_from([float("nan"), float("inf"), -1.5, 2.5, 1e11, "7", "x"]),
    st.none(),
)
_b64 = st.one_of(
    st.binary(max_size=24).map(lambda b: base64.b64encode(b).decode()),
    st.text(max_size=12), _junk,
)
_inline_specs = st.one_of(
    st.fixed_dictionaries({
        "shape": st.one_of(st.lists(_dims, max_size=3), _junk),
        "coo": st.one_of(
            st.lists(
                st.one_of(st.lists(st.one_of(st.integers(-3, 70), _junk),
                                   max_size=4), _junk),
                max_size=5,
            ),
            _junk,
        ),
    }),
    st.fixed_dictionaries(
        {"shape": st.lists(_dims, min_size=2, max_size=2)},
        optional={"rows_b64": _b64, "cols_b64": _b64, "vals_b64": _b64},
    ),
    _junk,
)


class TestProtocol:
    def test_message_round_trip(self):
        obj = {"op": "ping", "id": 3, "nested": {"x": [1, 2]}}
        assert decode_msg(encode_msg(obj)) == obj

    def test_part_round_trip(self):
        part = np.array([0, 3, 1, 2], dtype=np.int64)
        assert np.array_equal(part_from_b64(part_to_b64(part)), part)

    def test_inline_matrix_round_trip(self):
        a = sp.random(12, 9, density=0.3, format="csr", random_state=1)
        b = matrix_from_inline(inline_matrix(a))
        assert (a != b).nnz == 0
        assert b.shape == a.shape

    def test_inline_matrix_plain_coo(self):
        b = matrix_from_inline(
            {"shape": [2, 2], "coo": [[0, 0, 2.0], [1, 1, 3.0]]}
        )
        assert b.toarray().tolist() == [[2.0, 0.0], [0.0, 3.0]]

    def test_inline_matrix_rejects_bad_indices(self):
        with pytest.raises(ProtocolError, match="out of range"):
            matrix_from_inline({"shape": [2, 2], "coo": [[5, 0, 1.0]]})

    @pytest.mark.parametrize("spec, code", [
        ({"shape": [-1, 5], "coo": []}, "bad-request"),
        ({"shape": [3, 3], "coo": 5}, "bad-request"),
        ({"shape": [3, 3], "coo": [[0]]}, "bad-request"),
        ({"shape": [3, 3], "coo": [["a", "b"]]}, "bad-request"),
        ({"shape": [1e11, 1e11], "coo": []}, "oversized"),
    ])
    def test_malformed_inline_matrix_is_a_typed_error(self, tmp_path, spec, code):
        async def scenario(svc):
            return await svc.handle(
                {"op": "decompose", "matrix": {"inline": spec}, "k": 2,
                 "seed": 0}, "c"
            )

        r = run_service(scenario, service_cfg(tmp_path))
        assert r["ok"] is False
        assert r["error"]["code"] == code

    @given(spec=_inline_specs)
    def test_fuzzed_inline_matrix_raises_only_protocol_errors(self, spec):
        try:
            a = matrix_from_inline(spec)
        except ProtocolError as exc:
            assert exc.code in ("bad-request", "oversized")
        else:
            assert isinstance(a, sp.csr_matrix)

    def test_parse_rejects_bad_requests(self):
        with pytest.raises(ProtocolError, match="matrix"):
            parse_decompose({"op": "decompose"})
        with pytest.raises(ProtocolError, match="'k'"):
            parse_decompose({"op": "decompose", "matrix": {"path": "x"}})
        with pytest.raises(ProtocolError, match="method"):
            parse_decompose(
                {"op": "decompose", "matrix": {"path": "x"}, "k": 2,
                 "method": "nope"}
            )
        with pytest.raises(ProtocolError, match="'seed' must be >= 0"):
            parse_decompose(
                {"op": "decompose", "matrix": {"path": "x"}, "k": 2,
                 "seed": -5}
            )

    def test_fingerprint_lookup_needs_no_k(self):
        fields = parse_decompose(
            {"op": "decompose", "matrix": {"fingerprint": "ab"}}
        )
        assert "k" not in fields


# ----------------------------------------------------------------------
# the two-tier cache
# ----------------------------------------------------------------------
class TestCacheMemoryTier:
    def test_lru_eviction_order_under_byte_budget(self):
        one = entry("a").nbytes
        cache = PartitionCache(mem_bytes=3 * one, disk_dir=None)
        for fp in ("a", "b", "c"):
            cache.put(entry(fp))
        cache.get("a")  # refresh: "b" is now least recently used
        cache.put(entry("d"))
        assert cache.get("b") is None
        got = cache.get("a")
        assert got is not None and got[1] == "memory"
        assert cache.get("c") is not None and cache.get("d") is not None
        assert cache.stats()["mem_evictions"] == 1

    def test_oversized_entry_skips_memory_tier(self, tmp_path):
        cache = PartitionCache(mem_bytes=64, disk_dir=str(tmp_path))
        cache.put(entry("big", n=10_000))
        assert cache.stats()["mem_entries"] == 0
        got = cache.get("big")  # still served, from disk
        assert got is not None and got[1] == "disk"

    def test_replacement_does_not_leak_budget(self):
        cache = PartitionCache(mem_bytes=10 * entry("x").nbytes)
        for _ in range(50):
            cache.put(entry("x"))
        assert cache.stats()["mem_bytes_used"] == entry("x").nbytes


class TestCacheDiskTier:
    def test_disk_round_trip_across_instances(self, tmp_path):
        meta = {"k": 4, "cutsize": 17, "method": "finegrain"}
        PartitionCache(disk_dir=str(tmp_path)).put(entry("fp1", meta=meta))
        fresh = PartitionCache(disk_dir=str(tmp_path))  # a daemon restart
        got = fresh.get("fp1")
        assert got is not None
        e, tier = got
        assert tier == "disk"
        assert np.array_equal(e.part, entry("fp1").part)
        assert e.meta == meta
        # the disk hit was promoted: next lookup is a memory hit
        assert fresh.get("fp1")[1] == "memory"

    def test_corrupt_entry_detected_deleted_recomputed(self, tmp_path):
        cache = PartitionCache(mem_bytes=0, disk_dir=str(tmp_path))
        cache.put(entry("fp1"))
        path = cache._disk_path("fp1")
        with open(path, "r+b") as f:  # flip bytes inside the npz payload
            f.seek(os.path.getsize(path) // 2)
            f.write(b"\xff\xff\xff\xff\xff\xff\xff\xff")
        assert cache.get("fp1") is None
        assert not os.path.exists(path)  # deleted, will be recomputed
        assert cache.stats()["corrupt_entries"] == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = PartitionCache(mem_bytes=0, disk_dir=str(tmp_path))
        cache.put(entry("fp1"))
        path = cache._disk_path("fp1")
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) // 3)
        assert cache.get("fp1") is None
        assert cache.stats()["corrupt_entries"] == 1

    def test_wrong_fingerprint_under_right_name_is_corrupt(self, tmp_path):
        cache = PartitionCache(mem_bytes=0, disk_dir=str(tmp_path))
        cache.put(entry("fp1"))
        os.replace(cache._disk_path("fp1"), cache._disk_path("fp2"))
        assert cache.get("fp2") is None
        assert cache.stats()["corrupt_entries"] == 1

    def test_disk_eviction_lru_by_mtime(self, tmp_path):
        one_file = None
        cache = PartitionCache(mem_bytes=0, disk_dir=str(tmp_path))
        cache.put(entry("a"))
        one_file = os.path.getsize(cache._disk_path("a"))
        cache.disk_bytes = int(2.5 * one_file)
        now = time.time()
        os.utime(cache._disk_path("a"), (now - 100, now - 100))
        cache.put(entry("b"))
        os.utime(cache._disk_path("b"), (now - 50, now - 50))
        cache.put(entry("c"))  # budget fits 2: oldest ("a") evicted
        assert cache.get("a") is None
        assert cache.get("b") is not None
        assert cache.get("c") is not None
        assert cache.stats()["disk_evictions"] == 1

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        cache = PartitionCache(disk_dir=str(tmp_path))
        cache.put(entry("fp1"))
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


# ----------------------------------------------------------------------
# the service: cache hits, dedup, admission, deadline
# ----------------------------------------------------------------------
class TestServiceCaching:
    def test_repeat_request_hits_cache_byte_identically(self, tmp_path, a):
        trace = tmp_path / "trace.ndjson"
        cfg = service_cfg(tmp_path, trace_path=str(trace))

        async def scenario(svc):
            r1 = await svc.handle(req(a, seed=0), "c1")
            r2 = await svc.handle(req(a, seed=0), "c2")
            return r1, r2, svc.stats()

        r1, r2, stats = run_service(scenario, cfg)
        assert r1["served"]["cache"] == "computed"
        assert r2["served"]["cache"] == "hit-memory"
        # the canonical result document is byte-identical
        assert canonical_result_bytes(r1["result"]) == canonical_result_bytes(
            r2["result"]
        )
        assert stats["counters"]["hits_memory"] == 1
        assert stats["counters"]["computed"] == 1
        # the cache hit never touched the engine: no compute span; the
        # trace ends with the shutdown trailer close() seals it with
        lines = [json.loads(s) for s in trace.read_text().splitlines()]
        assert [ln["type"] for ln in lines] == ["request", "request", "shutdown"]
        assert "serve.compute" in lines[0]["telemetry"]["phases"]
        assert "serve.compute" not in lines[1]["telemetry"]["phases"]

    def test_fingerprint_only_lookup(self, tmp_path, a):
        cfg = service_cfg(tmp_path)

        async def scenario(svc):
            r1 = await svc.handle(req(a, seed=0), "c")
            fp = r1["result"]["fingerprint"]
            r2 = await svc.handle(
                {"op": "decompose", "matrix": {"fingerprint": fp}}, "c"
            )
            r3 = await svc.handle(
                {"op": "decompose", "matrix": {"fingerprint": "0" * 64}}, "c"
            )
            return r1, r2, r3

        r1, r2, r3 = run_service(scenario, cfg)
        assert canonical_result_bytes(r1["result"]) == canonical_result_bytes(
            r2["result"]
        )
        assert r3["ok"] is False
        assert r3["error"]["code"] == "unknown-fingerprint"

    def test_daemon_restart_serves_from_disk_tier(self, tmp_path, a):
        cfg = service_cfg(tmp_path)

        async def first(svc):
            return await svc.handle(req(a, seed=0), "c")

        async def second(svc):
            return await svc.handle(req(a, seed=0), "c")

        r1 = run_service(first, cfg)
        r2 = run_service(second, service_cfg(tmp_path))  # fresh process state
        assert r2["served"]["cache"] == "hit-disk"
        assert canonical_result_bytes(r1["result"]) == canonical_result_bytes(
            r2["result"]
        )

    def test_unseeded_requests_are_never_cached(self, tmp_path, a):
        cfg = service_cfg(tmp_path)

        async def scenario(svc):
            r1 = await svc.handle(req(a, seed=None), "c")
            r2 = await svc.handle(req(a, seed=None), "c")
            return r1, r2, svc.stats()

        r1, r2, stats = run_service(scenario, cfg)
        assert r1["served"]["cache"] == "computed"
        assert r2["served"]["cache"] == "computed"
        assert stats["counters"]["uncacheable"] == 2
        assert stats["cache"]["puts"] == 0

    def test_degraded_results_are_not_cached(self, tmp_path, a):
        cfg = service_cfg(tmp_path)

        async def scenario(svc):
            r1 = await svc.handle(
                req(a, seed=0, n_starts=4, deadline=1e-4), "c"
            )
            r2 = await svc.handle(
                req(a, seed=0, n_starts=4, deadline=60.0), "c"
            )
            return r1, r2, svc.stats()

        r1, r2, stats = run_service(scenario, cfg)
        assert r1["result"]["degraded"] is True
        assert r1["served"]["cache"] == "degraded"
        # the repeat was recomputed (and cached), not answered degraded
        assert r2["served"]["cache"] == "computed"
        assert r2["result"]["degraded"] is False
        assert stats["counters"]["degraded"] == 1

    def test_want_part_false_strips_the_vector(self, tmp_path, a):
        cfg = service_cfg(tmp_path)

        async def scenario(svc):
            return await svc.handle(req(a, seed=0, want_part=False), "c")

        r = run_service(scenario, cfg)
        assert "part_b64" not in r["result"]
        assert r["result"]["cutsize"] >= 0


class TestServiceScheduling:
    def test_inflight_dedup_shares_one_computation(self, tmp_path, a):
        cfg = service_cfg(tmp_path, n_workers=2)

        async def scenario(svc):
            responses = await asyncio.gather(
                *(svc.handle(req(a, seed=5), f"c{i}") for i in range(4))
            )
            return responses, svc.stats()

        responses, stats = run_service(scenario, cfg)
        tiers = sorted(r["served"]["cache"] for r in responses)
        assert stats["counters"]["computed"] == 1
        assert stats["counters"]["deduped"] == 3
        assert tiers.count("deduped") == 3
        blobs = {canonical_result_bytes(r["result"]) for r in responses}
        assert len(blobs) == 1  # all waiters got the byte-identical doc

    def test_queue_full_and_client_busy_refusals(self, tmp_path, a):
        cfg = service_cfg(
            tmp_path, n_workers=1, queue_limit=1, per_client_limit=1
        )

        async def scenario(svc):
            # distinct seeds: no dedup — all three want a compute slot
            t1 = asyncio.ensure_future(svc.handle(req(a, seed=1), "c1"))
            await asyncio.sleep(0)  # c1 occupies the only slot
            t2 = asyncio.ensure_future(svc.handle(req(a, seed=2), "c2"))
            await asyncio.sleep(0)  # c2 queues (global queue now full)
            r3 = await svc.handle(req(a, seed=3), "c3")  # refused
            r4 = await svc.handle(req(a, seed=4), "c2")  # c2 over its limit
            return await t1, await t2, r3, r4

        r1, r2, r3, r4 = run_service(scenario, cfg)
        assert r1["ok"] and r2["ok"]
        assert r3["error"]["code"] == "queue-full"
        assert r4["error"]["code"] == "client-busy"

    def test_fair_admission_round_robins_clients(self, tmp_path):
        from repro.serve.service import FairAdmission

        async def scenario():
            adm = FairAdmission(1, queue_limit=16, per_client_limit=8)
            order: list[str] = []
            await adm.acquire("holder")  # occupy the only slot

            async def one(client):
                await adm.acquire(client)
                order.append(client)
                await asyncio.sleep(0)
                adm.release(client)

            # "hog" floods the queue first; "meek" arrives with one request
            tasks = [asyncio.ensure_future(one("hog")) for _ in range(3)]
            await asyncio.sleep(0)  # hogs queue; ring = [hog]
            tasks.append(asyncio.ensure_future(one("meek")))
            await asyncio.sleep(0)  # meek queues; ring = [hog, meek]
            adm.release("holder")
            await asyncio.gather(*tasks)
            return order

        order = asyncio.run(scenario())
        # ring order alternates: meek is served second, not behind the
        # whole hog backlog
        assert order == ["hog", "meek", "hog", "hog"]

    def test_concurrent_distinct_requests_match_serial_goldens(
        self, tmp_path
    ):
        # the reentrancy regression: two different requests in flight at
        # once must produce exactly the bits of their serial runs
        import repro

        mats = {
            seed: sp.random(50, 50, density=0.1, format="csr", random_state=seed)
            for seed in (1, 2)
        }
        goldens = {
            seed: repro.decompose(m, 4, method="finegrain", seed=seed).part
            for seed, m in mats.items()
        }
        cfg = service_cfg(tmp_path, n_workers=2)

        async def scenario(svc):
            return await asyncio.gather(
                *(svc.handle(req(m, seed=seed), f"c{seed}")
                  for seed, m in mats.items())
            )

        responses = run_service(scenario, cfg)
        for (seed, _), r in zip(mats.items(), responses):
            assert np.array_equal(part_from_b64(r["result"]), goldens[seed])


class TestServiceOps:
    def test_ping_stats_and_unknown_op(self, tmp_path):
        cfg = service_cfg(tmp_path)

        async def scenario(svc):
            return (
                await svc.handle({"op": "ping", "id": 1}, "c"),
                await svc.handle({"op": "stats"}, "c"),
                await svc.handle({"op": "frobnicate"}, "c"),
            )

        ping, stats, bad = run_service(scenario, cfg)
        assert ping == {"id": 1, "ok": True, "pong": True}
        assert stats["stats"]["workers"] == 2
        assert bad["error"]["code"] == "bad-request"

    def test_shutdown_requires_opt_in(self, tmp_path):
        async def refused(svc):
            return await svc.handle({"op": "shutdown"}, "c")

        r = run_service(refused, service_cfg(tmp_path))
        assert r["error"]["code"] == "shutdown-refused"

        async def honoured(svc):
            r = await svc.handle({"op": "shutdown"}, "c")
            return r, svc.shutdown_event.is_set()

        r, is_set = run_service(
            honoured, service_cfg(tmp_path, allow_shutdown=True)
        )
        assert r["ok"] and is_set

    def test_errors_are_responses_not_exceptions(self, tmp_path):
        cfg = service_cfg(tmp_path)

        async def scenario(svc):
            return await svc.handle(
                {"op": "decompose", "matrix": {"path": "/does/not/exist"},
                 "k": 4}, "c"
            )

        r = run_service(scenario, cfg)
        assert r["ok"] is False
        assert r["error"]["code"] == "bad-request"


# ----------------------------------------------------------------------
# the fingerprint memo: a repeated request skips decode and fingerprint
# ----------------------------------------------------------------------
def serve_all(requests, cfg: ServeConfig):
    """Serve *requests* one after another; the responses, the counters and
    the memo's size after each request."""

    async def scenario(svc):
        out, memo_sizes = [], []
        for obj in requests:
            out.append(await svc.handle(dict(obj), "c"))
            memo_sizes.append(len(svc._fp_memo))
        return out, svc.stats()["counters"], memo_sizes

    return run_service(scenario, cfg)


def expected_fingerprint(obj: dict) -> str:
    """What :func:`repro.fingerprint` gives for *obj*'s decoded matrix under
    the service's default base config."""
    from repro.fingerprint import fingerprint
    from repro.partitioner import PartitionerConfig

    fields = parse_decompose(obj)
    cfg_kw = {
        "n_starts": fields.get("n_starts", 1),
        "n_workers": fields.get("engine_workers", 1),
        **({"epsilon": fields["epsilon"]} if "epsilon" in fields else {}),
    }
    a = matrix_from_inline(obj["matrix"]["inline"])
    return fingerprint(
        a, PartitionerConfig().with_(**cfg_kw), fields["seed"],
        k=fields["k"], method=fields["method"],
    )


def with_array_byte(obj: dict, key: str, index: int, value: int) -> dict:
    """*obj* with byte *index* of its inline *key* array set to *value*."""
    import base64

    raw = bytearray(base64.b64decode(obj["matrix"]["inline"][key]))
    raw[index] = value
    inline = dict(obj["matrix"]["inline"])
    inline[key] = base64.b64encode(bytes(raw)).decode("ascii")
    return {**obj, "matrix": {"inline": inline}}


class TestFingerprintMemo:
    @settings(max_examples=15)
    @given(
        n=st.integers(4, 9),
        density=st.floats(0.2, 0.6),
        mat_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**31),
        k=st.integers(2, 3),
        method=st.sampled_from(["finegrain", "columnnet", "rownet"]),
        epsilon=st.sampled_from([None, 0.03, 0.1]),
        n_starts=st.integers(1, 2),
    )
    def test_memo_fingerprint_equals_the_decoded_one(
        self, tmp_path_factory, n, density, mat_seed, seed, k, method,
        epsilon, n_starts,
    ):
        a = sp.random(n, n, density=density, format="csr", random_state=mat_seed)
        a = a + sp.identity(n, format="csr")  # no empty rows or columns
        obj = req(a, seed=seed, k=k, method=method, n_starts=n_starts)
        if epsilon is not None:
            obj["epsilon"] = epsilon
        cfg = service_cfg(tmp_path_factory.mktemp("memo"))
        (first, second), counters, _ = serve_all([obj, obj], cfg)
        assert counters["fingerprint_memo_hits"] == 1
        assert first["result"]["fingerprint"] == expected_fingerprint(obj)
        assert second["served"]["cache"] == "hit-memory"
        assert canonical_result_bytes(second["result"]) == canonical_result_bytes(
            first["result"]
        )

    def test_any_changed_field_misses_the_memo(self, tmp_path, a):
        from repro.core.api import decompose
        from repro.partitioner import PartitionerConfig

        base = req(a, seed=0, k=4, epsilon=0.03, n_starts=1)
        inline = base["matrix"]["inline"]
        grown = dict(inline, shape=[a.shape[0] + 1, a.shape[1] + 1])
        variants = {
            "seed": {**base, "seed": 1},
            "k": {**base, "k": 3},
            "method": {**base, "method": "columnnet"},
            "epsilon": {**base, "epsilon": 0.1},
            "n_starts": {**base, "n_starts": 2},
            "shape": {**base, "matrix": {"inline": grown}},
            # the low byte of the first row / column index, the first
            # value's lowest mantissa byte: all stay valid
            "rows_b64": with_array_byte(
                base, "rows_b64", 0, (a.tocoo().row[0] + 1) % a.shape[0]
            ),
            "cols_b64": with_array_byte(
                base, "cols_b64", 0, (a.tocoo().col[0] + 1) % a.shape[1]
            ),
            "vals_b64": with_array_byte(base, "vals_b64", 0, 0x5A),
        }
        requests = [base, base]
        for variant in variants.values():
            requests += [variant, variant]
        responses, counters, _ = serve_all(requests, service_cfg(tmp_path))
        # every variant's first ask misses the memo, its repeat hits it
        assert counters["fingerprint_memo_misses"] == 1 + len(variants)
        assert counters["fingerprint_memo_hits"] == 1 + len(variants)
        for name, first, repeat in zip(
            variants, responses[2::2], responses[3::2]
        ):
            obj = variants[name]
            assert first["ok"], name
            assert first["result"]["fingerprint"] == expected_fingerprint(obj)
            fields = parse_decompose(obj)
            cfg = PartitionerConfig().with_(
                n_starts=fields["n_starts"], epsilon=fields["epsilon"]
            )
            direct = decompose(
                matrix_from_inline(obj["matrix"]["inline"]), fields["k"],
                method=fields["method"], config=cfg, seed=fields["seed"],
            )
            assert np.array_equal(part_from_b64(first["result"]), direct.part), name
            assert canonical_result_bytes(repeat["result"]) == canonical_result_bytes(
                first["result"]
            ), name

    def test_memo_hit_after_eviction_recomputes_the_same_bits(self, tmp_path, a):
        trace = tmp_path / "trace.ndjson"
        cfg = service_cfg(tmp_path, cache_dir=None, trace_path=str(trace))

        async def scenario(svc):
            first = await svc.handle(req(a, seed=3), "c")
            svc.cache.clear()
            again = await svc.handle(req(a, seed=3), "c")
            return first, again, svc.stats()["counters"]

        first, again, counters = run_service(scenario, cfg)
        assert counters["fingerprint_memo_hits"] == 1
        assert counters["computed"] == 2
        assert again["served"]["cache"] == "computed"
        assert canonical_result_bytes(again["result"]) == canonical_result_bytes(
            first["result"]
        )
        # the repeat found its fingerprint in the memo, then decoded to compute
        spans = [
            {s["name"]: s.get("attrs", {}) for s in line["telemetry"]["spans"]}
            for line in map(json.loads, trace.read_text().splitlines())
            if line["type"] == "request"
        ]
        assert spans[0]["serve.fingerprint"]["memo"] is False
        assert spans[1]["serve.fingerprint"]["memo"] is True
        assert "serve.decode" in spans[1] and "serve.compute" in spans[1]

    def test_unseeded_and_path_requests_never_enter(self, tmp_path, a):
        from repro.matrix.io import write_matrix_market

        path = tmp_path / "a.mtx"
        write_matrix_market(a, path)
        by_path = {"op": "decompose", "matrix": {"path": str(path)}, "k": 4,
                   "seed": 0}
        unseeded = req(a, seed=None)
        responses, counters, memo_sizes = serve_all(
            [by_path, by_path, unseeded, unseeded], service_cfg(tmp_path)
        )
        assert memo_sizes == [0, 0, 0, 0]
        assert "fingerprint_memo_hits" not in counters
        assert counters["fingerprint_memo_misses"] == 4
        # the path's repeat is still a cache hit, through its decode
        assert responses[1]["served"]["cache"] == "hit-memory"

    def test_path_request_sees_a_rewritten_file(self, tmp_path, a):
        from repro.cli import load_matrix_arg
        from repro.fingerprint import fingerprint
        from repro.matrix.io import write_matrix_market
        from repro.partitioner import PartitionerConfig

        path = tmp_path / "a.mtx"
        by_path = {"op": "decompose", "matrix": {"path": str(path)}, "k": 4,
                   "seed": 0}
        b = sp.random(50, 50, density=0.1, format="csr", random_state=7)

        async def scenario(svc):
            write_matrix_market(a, path)
            first = await svc.handle(dict(by_path), "c")
            write_matrix_market(b, path)
            second = await svc.handle(dict(by_path), "c")
            return first, second

        first, second = run_service(scenario, service_cfg(tmp_path))
        cfg = PartitionerConfig().with_(n_starts=1, n_workers=1)
        assert second["result"]["fingerprint"] == fingerprint(
            load_matrix_arg(str(path)), cfg, 0, k=4, method="finegrain"
        )
        assert second["result"]["fingerprint"] != first["result"]["fingerprint"]

    def test_memo_never_grows_past_its_cap(self, tmp_path, a, monkeypatch):
        from repro.serve import service as service_mod

        monkeypatch.setattr(service_mod, "_FP_MEMO_CAP", 3)
        requests = [req(a, seed=s) for s in range(6)] + [req(a, seed=0)]
        responses, counters, memo_sizes = serve_all(requests, service_cfg(tmp_path))
        assert memo_sizes == [1, 2, 3, 3, 3, 3, 3]
        # seed 0 was the least recently used entry: evicted, so its repeat
        # decodes again and is answered from the result cache
        assert "fingerprint_memo_hits" not in counters
        assert responses[-1]["served"]["cache"] == "hit-memory"

    def test_out_of_range_index_is_still_refused(self, tmp_path, a):
        base = req(a, seed=0)
        # the low byte of the first row index now names row 200 of 60
        bad = with_array_byte(base, "rows_b64", 0, 200)
        responses, counters, memo_sizes = serve_all(
            [base, base, bad], service_cfg(tmp_path)
        )
        assert counters["fingerprint_memo_hits"] == 1
        assert responses[2]["ok"] is False
        assert responses[2]["error"]["code"] == "bad-request"
        assert memo_sizes[-1] == 1

    def test_memo_hit_response_is_byte_identical(self, tmp_path, a):
        obj = req(a, seed=9, want_part=True)
        (first, second), counters, _ = serve_all([obj, obj], service_cfg(tmp_path))
        assert first["served"]["cache"] == "computed"
        assert second["served"]["cache"] == "hit-memory"
        assert counters["fingerprint_memo_hits"] == 1
        assert canonical_result_bytes(second["result"]) == canonical_result_bytes(
            first["result"]
        )


# ----------------------------------------------------------------------
# the wire: a real daemon on a UNIX socket
# ----------------------------------------------------------------------
class TestEndToEnd:
    @pytest.fixture
    def daemon(self, tmp_path):
        from repro.serve import ServeConfig as SC, run_server

        sock = str(tmp_path / "repro.sock")
        cfg = SC(
            port=None, unix_path=sock, n_workers=2, allow_shutdown=True,
            cache_dir=str(tmp_path / "cache"),
        )
        thread = threading.Thread(
            target=run_server, args=(cfg, False), daemon=True
        )
        thread.start()
        deadline = time.monotonic() + 10
        while not os.path.exists(sock):
            assert time.monotonic() < deadline, "daemon never bound"
            time.sleep(0.02)
        yield sock
        from repro.serve.client import Client

        if thread.is_alive():
            try:
                with Client(sock) as c:
                    c.shutdown()
            except OSError:
                pass
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_client_round_trip_and_cache_hit(self, daemon, a):
        from repro.serve.client import Client

        with Client(daemon) as c:
            assert c.ping()
            r1 = c.decompose(a, k=4, seed=0)
            r2 = c.decompose(a, k=4, seed=0)
            assert r1.served["cache"] == "computed"
            assert r2.served["cache"] == "hit-memory"
            assert np.array_equal(r1.part, r2.part)
            assert json.dumps(r1.raw, sort_keys=True) == json.dumps(
                r2.raw, sort_keys=True
            )
            stats = c.stats()
            assert stats["counters"]["hits_memory"] == 1

    def test_error_codes_reach_the_client(self, daemon):
        from repro.serve.client import Client, ServeError

        with Client(daemon) as c:
            with pytest.raises(ServeError) as exc:
                c.decompose("fingerprint:" + "0" * 64)
            assert exc.value.code == "unknown-fingerprint"

    def test_concurrent_clients_share_the_cache(self, daemon, a):
        from repro.serve.client import Client

        parts = []

        def one(name):
            with Client(daemon, client_id=name) as c:
                parts.append(c.decompose(a, k=4, seed=9).part.tobytes())

        threads = [
            threading.Thread(target=one, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(parts)) == 1


# ----------------------------------------------------------------------
# reentrancy: concurrent decompose() calls in one process
# ----------------------------------------------------------------------
class TestConcurrentDecompose:
    def test_threads_with_scoped_recorders_match_serial_goldens(self):
        import repro
        from repro.telemetry import TelemetryRecorder, scoped_recorder

        cases = [
            (sp.random(40, 40, density=0.12, format="csr", random_state=s), s)
            for s in (1, 2, 3)
        ]
        goldens = [
            repro.decompose(m, 4, method="finegrain", seed=s).part
            for m, s in cases
        ]

        def one(case):
            m, s = case
            with scoped_recorder(TelemetryRecorder()) as rec:
                res = repro.decompose(m, 4, method="finegrain", seed=s)
            # the scoped recorder saw this request's engine spans
            assert rec.roots or rec.orphan_counters
            return res.part

        with ThreadPoolExecutor(max_workers=3) as pool:
            parts = list(pool.map(one, cases))
        for part, golden in zip(parts, goldens):
            assert np.array_equal(part, golden)

    def test_scoped_recorders_do_not_cross_threads(self):
        from repro.telemetry import (
            TelemetryRecorder,
            get_recorder,
            scoped_recorder,
        )

        seen = {}

        def probe(name):
            with scoped_recorder(TelemetryRecorder()) as rec:
                time.sleep(0.01)
                seen[name] = get_recorder() is rec

        threads = [
            threading.Thread(target=probe, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(seen.values()) and len(seen) == 4
