"""Smoke-run the E12 concurrency benchmark at toy sizes.

Tier-1 runs this (via ``tests/integration/test_async_bench_smoke.py``) so
both concurrency layers — the selector-reactor session core and the
shared-memory multiprocess scan pool — are exercised on every test run.
It records timings but gates only on *structure* and *correctness*:

- the reactor must hold ``SESSIONS`` negotiated sessions on exactly
  **one** service thread, and still answer a live private GET;
- pool answers must be bitwise identical to thread-engine answers.

Perf claims (engine speedup at ≥4 workers, 400 sessions on one thread)
live in ``benchmarks/bench_e12_async_sessions.py`` at real sizes, where
they are meaningful.

Run standalone::

    PYTHONPATH=src python benchmarks/async_smoke.py [--out BENCH_async_sessions.json]
"""

from __future__ import annotations

import argparse
import json
import socket
import time
from pathlib import Path

import numpy as np

from repro.core.zltp import messages as msg
from repro.core.zltp.client import connect_client
from repro.core.zltp.eventloop import ZltpEventLoopServer
from repro.core.zltp.modes import MODE_PIR2
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.sockets import connect_tcp
from repro.core.zltp.wire import FrameDecoder, encode_frame
from repro.crypto.dpf import gen_dpf
from repro.pir.database import BlobDatabase
from repro.pir.engine import ScanExecutor
from repro.pir.keyword import KeywordIndex
from repro.pir.procpool import ProcScanPool
from repro.pir.sharding import ShardedDeployment

DOMAIN_BITS = 8
BLOB_BYTES = 256
PREFIX_BITS = 2
SESSIONS = 32
SALT = b"e12-smoke"

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_async_sessions.json"


def _build_logical(party: int = 0) -> ZltpServer:
    db = BlobDatabase(DOMAIN_BITS, BLOB_BYTES)
    index = KeywordIndex(db, probes=2, salt=SALT)
    for i in range(12):
        index.put(f"s{i}.com/p", f"e12-{i}".encode())
    return ZltpServer(db, modes=[MODE_PIR2], party=party, salt=SALT,
                      probes=2)


def _measure_sessions(n_sessions: int = SESSIONS) -> dict:
    """Hold ``n_sessions`` negotiated sessions on the party-0 reactor,
    then run one private GET through both parties."""
    listeners = [ZltpEventLoopServer(_build_logical(party))
                 for party in (0, 1)]
    socks = []
    try:
        t0 = time.perf_counter()
        negotiated = 0
        for _ in range(n_sessions):
            sock = socket.create_connection(listeners[0].address, timeout=10)
            sock.sendall(encode_frame(msg.encode_message(
                msg.ClientHello(["pir2"]))))
            socks.append(sock)
        # Read every hello reply so all sessions are truly negotiated.
        for sock in socks:
            sock.settimeout(10)
            decoder = FrameDecoder()
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                frames = decoder.feed(chunk)
                if frames:
                    if isinstance(msg.decode_message(frames[0]),
                                  msg.ServerHello):
                        negotiated += 1
                    break
        open_seconds = time.perf_counter() - t0
        deadline = time.monotonic() + 5
        while listeners[0].active_connections < n_sessions and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        concurrent = listeners[0].active_connections
        threads = listeners[0].worker_count
        # The reactor still does real work while holding them all.
        client = connect_client([connect_tcp(*listener.address)
                                 for listener in listeners])
        get_ok = client.get("s3.com/p") == b"e12-3"
        client.close()
        return {
            "concurrent_sessions": concurrent,
            "negotiated_sessions": negotiated,
            "service_threads": threads,
            "open_seconds": open_seconds,
            "get_ok": get_ok,
        }
    finally:
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass
        for listener in listeners:
            listener.stop()


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def _measure_engines() -> list:
    """Same sharded answers through the thread engine and the pool."""
    db = BlobDatabase(DOMAIN_BITS, BLOB_BYTES)
    rng = np.random.default_rng(0)
    for slot in range(0, db.n_slots, 5):
        db.set_slot(slot, bytes(rng.integers(0, 256, 64, dtype=np.uint8)))
    key0, _ = gen_dpf(7, DOMAIN_BITS, rng=np.random.default_rng(1))
    raw = key0.to_bytes()

    threaded = ShardedDeployment(db, PREFIX_BITS,
                                 executor=ScanExecutor(max_workers=2))
    thr_answer, thr_seconds = _timed(lambda: threaded.answer(0, raw))

    pool = ProcScanPool(max_workers=2)
    try:
        pooled = ShardedDeployment(db, PREFIX_BITS, executor=pool)
        pooled.answer(0, raw)  # warm-up: worker spawn + segment attach
        pool_answer, pool_seconds = _timed(lambda: pooled.answer(0, raw))
        fanout = pooled.front_ends[0].last_fanout
        return [
            {
                "engine": "threaded",
                "workers": threaded.executor.max_workers,
                "answer_seconds": thr_seconds,
                "engine_speedup": threaded.front_ends[0].last_fanout.speedup,
                "answers_match": True,
            },
            {
                "engine": "procpool",
                "workers": pool.max_workers,
                "answer_seconds": pool_seconds,
                "engine_speedup": fanout.speedup if fanout else None,
                "answers_match": pool_answer == thr_answer,
            },
        ]
    finally:
        pool.shutdown()


def run() -> dict:
    """Exercise both concurrency layers at toy sizes; return the record."""
    return {
        "experiment": "E12 async sessions + multiprocess scan workers "
                      "(smoke, toy sizes)",
        "sessions": _measure_sessions(),
        "engine": _measure_engines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="where to write the results JSON")
    args = parser.parse_args(argv)
    data = run()
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {args.out}")
    failures = []
    sessions = data["sessions"]
    if not sessions["concurrent_sessions"] == \
            sessions["negotiated_sessions"] == SESSIONS:
        failures.append(f"the reactor held {sessions['concurrent_sessions']}"
                        f" sessions ({sessions['negotiated_sessions']} "
                        f"negotiated), not {SESSIONS}")
    if sessions["service_threads"] != 1:
        failures.append("the reactor spent more than one service thread")
    if not sessions["get_ok"]:
        failures.append("the loaded reactor failed the live GET")
    for entry in data["engine"]:
        if not entry["answers_match"]:
            failures.append(f"{entry['engine']} answers diverged")
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
