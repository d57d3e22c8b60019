"""One private GET, traced end to end through a live TCP deployment.

Drives a real ``ZltpClient.get`` through two ``ZltpEventLoopServer``
listeners (one per pir2 party) whose pir2 mode servers run the §5.2
sharded stack
(``prefix_bits=2`` → front-end + 4 data servers), and asserts the
exported trace is the nested span tree the observability design promises:

    zltp.client.get                      (client side, main thread)
    zltp.session.get                     (per party, reactor thread)
      backend.answer
        pir2.key_split / pir2.gang_eval
        engine.map / engine.fanout       (scan-engine dispatch)
          pir2.shard_scan × 4            (worker threads, one per shard)

with per-span wall clocks and byte counts that reconcile with the
``RequestStats`` the protocol layer recorded.
"""

import json

import pytest

from repro.core.zltp.client import connect_client
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.eventloop import ZltpEventLoopServer
from repro.core.zltp.sockets import connect_tcp
from repro.obs.trace import tracing
from repro.pir.database import BlobDatabase
from repro.pir.engine import ScanExecutor
from repro.pir.keyword import KeywordIndex

SALT = b"trace-salt"
PREFIX_BITS = 2
PAYLOAD = b"trace me end to end"


def spans_named(trees, names):
    """Every span in the forest whose name is in ``names`` (recursive)."""
    out = []

    def walk(node):
        if node["name"] in names:
            out.append(node)
        for child in node["children"]:
            walk(child)

    for tree in trees:
        walk(tree)
    return out


@pytest.fixture
def traced_world():
    db = BlobDatabase(domain_bits=6, blob_size=128)
    index = KeywordIndex(db, probes=1, salt=SALT)
    index.put("hello", PAYLOAD)
    executor = ScanExecutor(max_workers=2)
    servers = [
        ZltpServer(db, modes=["pir2"], party=party, salt=SALT, probes=1,
                   executor=executor, options={"prefix_bits": PREFIX_BITS})
        for party in (0, 1)
    ]
    listeners = [ZltpEventLoopServer(server) for server in servers]
    yield servers, listeners, executor
    for listener in listeners:
        listener.stop()
    executor.shutdown()


class TestTraceEndToEnd:
    def test_one_get_produces_the_nested_span_tree(self, traced_world):
        servers, listeners, executor = traced_world
        with tracing() as tracer:
            transports = [connect_tcp(*lis.address) for lis in listeners]
            client = connect_client(transports, supported_modes=["pir2"])
            assert client.get("hello") == PAYLOAD
            client.close()
        trees = tracer.export()

        # --- client root -------------------------------------------------
        [client_span] = spans_named(trees, {"zltp.client.get"})
        assert client_span["attrs"]["mode"] == "pir2"
        assert client_span["attrs"]["probes"] == 1
        assert client_span["wall_seconds"] > 0
        # The client span carries no key-derived attributes — only the
        # public mode/probe parameters (zero-leakage rule).
        assert set(client_span["attrs"]) == {"mode", "probes"}

        # --- one session span per party, each a root of its own tree -----
        session_spans = spans_named(trees, {"zltp.session.get"})
        assert len(session_spans) == 2
        for sess in session_spans:
            assert sess in [t for t in trees]  # reactor threads → roots
            assert sess["attrs"]["mode"] == "pir2"
            assert sess["attrs"]["queries"] == 1

            # --- backend dispatch under the session ----------------------
            backends = [c for c in sess["children"]
                        if c["name"] == "backend.answer"]
            assert len(backends) == 1
            backend = backends[0]
            assert backend["attrs"]["bytes_up"] == sess["attrs"]["bytes_up"]
            assert backend["attrs"]["bytes_down"] == sess["attrs"]["bytes_down"]

            # --- sharded pir2 core under the backend ----------------------
            names = [c["name"] for c in backend["children"]]
            assert "pir2.key_split" in names
            engines = [c for c in backend["children"]
                       if c["name"] in ("engine.map", "engine.fanout")]
            assert len(engines) == 1
            engine = engines[0]
            assert engine["attrs"]["tasks"] == 1 << PREFIX_BITS

            # --- per-shard scans under the engine dispatch ----------------
            scans = [c for c in engine["children"]
                     if c["name"] == "pir2.shard_scan"]
            assert sorted(s["attrs"]["shard"] for s in scans) == \
                list(range(1 << PREFIX_BITS))

            # --- wall clocks nest sanely ----------------------------------
            assert sess["wall_seconds"] >= backend["wall_seconds"] > 0
            for scan in scans:
                assert 0 <= scan["wall_seconds"] <= engine["wall_seconds"]

    def test_span_bytes_reconcile_with_request_stats(self, traced_world):
        servers, listeners, executor = traced_world
        with tracing() as tracer:
            transports = [connect_tcp(*lis.address) for lis in listeners]
            client = connect_client(transports, supported_modes=["pir2"])
            assert client.get("hello") == PAYLOAD
            client.close()
        trees = tracer.export()
        session_spans = spans_named(trees, {"zltp.session.get"})

        # Each party's session span reports exactly what that party's
        # server accounted for the mode.
        per_server = [server.stats_for("pir2") for server in servers]
        assert sorted(s["attrs"]["bytes_up"] for s in session_spans) == \
            sorted(st.bytes_up for st in per_server)
        assert sorted(s["attrs"]["bytes_down"] for s in session_spans) == \
            sorted(st.bytes_down for st in per_server)

        # And the shared executor's backend report carries the totals.
        report = executor.backend_report()["pir2"]
        assert report.queries == sum(st.queries for st in per_server) == 2
        assert report.bytes_up == sum(s["attrs"]["bytes_up"]
                                      for s in session_spans)
        assert report.bytes_down == sum(s["attrs"]["bytes_down"]
                                        for s in session_spans)

    def test_trace_exports_as_json(self, traced_world):
        servers, listeners, executor = traced_world
        with tracing() as tracer:
            transports = [connect_tcp(*lis.address) for lis in listeners]
            client = connect_client(transports, supported_modes=["pir2"])
            client.get("hello")
            client.close()
        trees = json.loads(tracer.export_json(indent=2))
        assert spans_named(trees, {"pir2.shard_scan"})
        for tree in trees:
            assert {"name", "attrs", "wall_seconds", "children"} <= set(tree)
