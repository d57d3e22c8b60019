"""E12 — outgrowing thread-per-everything: reactor sessions + process scans.

Two claims from this repo's concurrency work (no direct paper numbers —
the paper's §5.2 front-end is a fleet of real machines; here the win is
showing the *shape* on one host):

1. One selector-reactor thread holds 400 negotiated sessions — its
   per-session cost is a ~200-byte connection record, not a thread
   stack — while still answering a live private GET. (The
   thread-per-connection core this replaced spent 400 threads on the
   same load; EXPERIMENTS.md keeps that row.)
2. The shared-memory multiprocess scan pool beats the thread-pool engine
   on fan-out wall time once real cores are available: with ≥4 workers on
   ≥4 cores, ``engine_speedup`` (summed busy over wall) must exceed 1.5 —
   the number the GIL pins near 1.0 for the thread engine (E9's finding).

Measured numbers land in ``BENCH_async_sessions.json`` at the repo root.
"""

import json
import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import report
from repro.core.zltp import messages as msg
from repro.core.zltp.client import connect_client
from repro.core.zltp.eventloop import ZltpEventLoopServer
from repro.core.zltp.modes import MODE_PIR2
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.sockets import connect_tcp
from repro.core.zltp.wire import FrameDecoder, encode_frame
from repro.crypto.dpf import gen_dpf
from repro.pir.database import BlobDatabase
from repro.pir.engine import ScanExecutor, available_cpus
from repro.pir.keyword import KeywordIndex
from repro.pir.procpool import ProcScanPool
from repro.pir.sharding import ShardedDeployment

SESSIONS = 400                   # concurrent negotiated sessions
ENGINE_DOMAIN_BITS = 14          # 2^14 x 4 KiB = 64 MiB logical database
ENGINE_PREFIX_BITS = 2           # one shard per worker at 4 workers
BLOB_BYTES = 4096
SALT = b"e12-bench"
_ROUNDS = 3

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_async_sessions.json"


def _build_logical(party: int = 0) -> ZltpServer:
    db = BlobDatabase(8, 256)
    index = KeywordIndex(db, probes=2, salt=SALT)
    for i in range(12):
        index.put(f"s{i}.com/p", f"e12-{i}".encode())
    return ZltpServer(db, modes=[MODE_PIR2], party=party, salt=SALT,
                      probes=2)


def _best_of(fn, rounds: int = _ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _negotiate_many(address, count: int):
    """Open ``count`` sockets, send hellos, read every ServerHello."""
    socks = []
    hello = encode_frame(msg.encode_message(msg.ClientHello(["pir2"])))
    for _ in range(count):
        sock = socket.create_connection(address, timeout=30)
        sock.sendall(hello)
        socks.append(sock)
    for sock in socks:
        sock.settimeout(30)
        decoder = FrameDecoder()
        while True:
            chunk = sock.recv(65536)
            if not chunk or decoder.feed(chunk):
                break
    return socks


@pytest.fixture(scope="module")
def results():
    data = {"experiment": "E12 async sessions + multiprocess scan workers",
            "sessions": {}, "engine": []}
    yield data
    RESULTS_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"\n  wrote {RESULTS_PATH}")


def test_e12_sessions_per_thread(benchmark, results):
    measured = {}

    def run():
        listeners = [ZltpEventLoopServer(_build_logical(party))
                     for party in (0, 1)]
        baseline_threads = threading.active_count()
        try:
            t0 = time.perf_counter()
            socks = _negotiate_many(listeners[0].address, SESSIONS)
            open_seconds = time.perf_counter() - t0
            deadline = time.monotonic() + 10
            while listeners[0].active_connections < SESSIONS and \
                    time.monotonic() < deadline:
                time.sleep(0.02)
            measured.update({
                "concurrent_sessions": listeners[0].active_connections,
                "service_threads": listeners[0].worker_count,
                "process_thread_delta":
                    threading.active_count() - baseline_threads,
                "open_seconds": open_seconds,
            })
            # The reactor still answers a live GET while holding them all.
            client = connect_client([connect_tcp(*listener.address)
                                     for listener in listeners])
            measured["get_ok"] = client.get("s5.com/p") == b"e12-5"
            client.close()
            for sock in socks:
                sock.close()
        finally:
            for listener in listeners:
                listener.stop()
        return measured

    benchmark.pedantic(run, rounds=1, iterations=1)
    report("E12: concurrent sessions per service thread", [(
        f"eventloop: {measured['concurrent_sessions']} sessions",
        f"{measured['service_threads']} service thread(s), "
        f"opened in {measured['open_seconds']:.2f} s, "
        f"live GET {'ok' if measured['get_ok'] else 'FAILED'}",
    )])
    results["sessions"] = measured
    # Claim 1: every session on one thread, and the reactor still serves.
    assert measured["concurrent_sessions"] == SESSIONS
    assert measured["service_threads"] == 1
    assert measured["get_ok"]


@pytest.mark.skipif(available_cpus() < 4,
                    reason="engine speedup claim needs >= 4 real cores")
def test_e12_process_pool_vs_thread_pool(benchmark, results):
    workers = min(4, available_cpus())
    db = BlobDatabase(ENGINE_DOMAIN_BITS, BLOB_BYTES)
    rng = np.random.default_rng(0)
    for slot in rng.choice(db.n_slots, size=64, replace=False):
        db.set_slot(int(slot), bytes(rng.integers(0, 256, 512,
                                                  dtype=np.uint8)))
    key0, _ = gen_dpf(5, ENGINE_DOMAIN_BITS, rng=np.random.default_rng(1))
    raw = key0.to_bytes()

    rows = []
    measured = []

    def run_all():
        measured.clear()
        threaded = ShardedDeployment(db, ENGINE_PREFIX_BITS,
                                     executor=ScanExecutor(
                                         max_workers=workers))
        pool = ProcScanPool(max_workers=workers)
        try:
            pooled = ShardedDeployment(db, ENGINE_PREFIX_BITS, executor=pool)
            assert pooled.answer(0, raw) == threaded.answer(0, raw)
            thr_seconds = _best_of(lambda: threaded.answer(0, raw))
            thr_fanout = threaded.front_ends[0].last_fanout
            pool_seconds = _best_of(lambda: pooled.answer(0, raw))
            pool_fanout = pooled.front_ends[0].last_fanout
            measured.extend([
                {"engine": "threaded", "workers": workers,
                 "answer_seconds": thr_seconds,
                 "engine_speedup": thr_fanout.speedup,
                 "answers_match": True},
                {"engine": "procpool", "workers": workers,
                 "answer_seconds": pool_seconds,
                 "engine_speedup": pool_fanout.speedup,
                 "answers_match": True},
            ])
        finally:
            pool.shutdown()
        return measured

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    for m in measured:
        rows.append((
            f"{m['engine']} x{m['workers']}",
            f"answer {m['answer_seconds']*1e3:.1f} ms, "
            f"engine_speedup {m['engine_speedup']:.2f}",
        ))
    report("E12: process pool vs thread pool fan-out", rows)
    results["engine"] = measured
    by_engine = {m["engine"]: m for m in measured}
    # Shape claim 2: real cores actually overlap — the number the GIL
    # pins near 1.0 for threads must clear 1.5 for processes.
    assert by_engine["procpool"]["engine_speedup"] > 1.5
    assert (by_engine["procpool"]["answer_seconds"]
            < by_engine["threaded"]["answer_seconds"])
