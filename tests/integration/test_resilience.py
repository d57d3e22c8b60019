"""Chaos suite: real protocol runs through injected transport faults.

Every test drives a *complete* ZLTP session (hello, optional setup,
private GETs) while :mod:`repro.netsim.faults` kills, delays, or drops
frames at scripted protocol steps, or :class:`~repro.netsim.simnet.
NetworkPath` loses frames at a seeded random rate — and asserts that the
resilience layer (:mod:`repro.core.resilience`) completes the same
operations with byte-identical results.

A note on drop semantics: shape-preserving recovery is triggered by
*public transport events* (a dead connection, an empty synchronous
inbox). A TCP-like stream cannot lose a frame without the connection
failing, so pipelined batches recover cleanly from ``close``/``error``
faults; silent datagram-style loss (netsim paths, ``drop`` rules) is
recoverable when one request is outstanding per transport — the lossy
tests below drive exactly that shape.
"""

import json
import socket

import numpy as np
import pytest

from repro.core.resilience import ReconnectingTransport, RetryPolicy
from repro.core.zltp.client import connect_client
from repro.core.zltp.eventloop import ZltpEventLoopServer
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.sockets import (
    StatsTcpServer,
    connect_tcp,
    connect_tcp_resilient,
)
from repro.core.zltp.transport import transport_pair
from repro.crypto.dpf import gen_dpf
from repro.errors import DeadlineError
from repro.netsim.faults import FaultRule, FaultSchedule, FaultyTransport
from repro.netsim.simnet import NetworkPath, SimClock, sim_transport_pair
from repro.obs.metrics import REGISTRY
from repro.pir.database import BlobDatabase
from repro.pir.engine import ScanExecutor
from repro.pir.keyword import KeywordIndex
from repro.pir.sharding import ShardedDeployment

SALT = b"chaos-test"


def build_db(probes=2, n_records=12):
    db = BlobDatabase(8, 64)
    index = KeywordIndex(db, probes=probes, salt=SALT)
    for i in range(n_records):
        index.put(f"s{i}.com/p", f"res-{i}".encode())
    return db


def party_servers(db, probes=2, **kwargs):
    return [ZltpServer(db, modes=["pir2"], party=party, salt=SALT,
                       probes=probes, **kwargs)
            for party in (0, 1)]


def fast_policy(attempts=8):
    """Backoff that never sleeps — chaos tests should run in milliseconds."""
    return RetryPolicy(max_attempts=attempts, base_delay=0.001,
                       max_delay=0.01, jitter=0.0, sleep=lambda s: None)


def memory_dial(server, schedule=None):
    """Dial factory: a fresh in-memory pair served by ``server``.

    The same :class:`FaultSchedule` (rules consumed once globally) wraps
    every incarnation, so a scripted fault fires exactly once no matter
    how many times the resilient wrapper re-dials.
    """
    def dial():
        client_end, server_end = transport_pair("client", "server")
        server.serve_transport(server_end)
        if schedule is not None:
            return FaultyTransport(client_end, schedule)
        return client_end
    return dial


def http_get(address, path):
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    return data.partition(b"\r\n\r\n")[2]


def metric_value(metrics, name, **labels):
    wanted = {k: str(v) for k, v in labels.items()}
    for series in metrics[name]["series"]:
        if series["labels"] == wanted:
            return series["value"]
    return 0.0


class TestScriptedFaults:
    def test_recv_error_mid_pipelined_batch_recovers(self):
        db = build_db()
        servers = party_servers(db)
        schedule = FaultSchedule.script(("recv", 3, "error"))
        transports = [
            ReconnectingTransport(memory_dial(servers[0], schedule),
                                  policy=fast_policy(), name="party0"),
            ReconnectingTransport(memory_dial(servers[1]),
                                  policy=fast_policy(), name="party1"),
        ]
        client = connect_client(transports, supported_modes=["pir2"])
        slots = [client.candidate_slots(f"s{i}.com/p")[0] for i in range(6)]
        records = client.get_slots(slots)
        assert records == [db.get_slot(slot) for slot in slots]
        assert transports[0].reconnects == 1
        assert transports[0].frames_replayed >= 1
        assert schedule.pending == 0
        client.close()

    def test_connection_closed_mid_batch_recovers(self):
        db = build_db()
        servers = party_servers(db)
        schedule = FaultSchedule.script(("recv", 2, "close"))
        transports = [
            ReconnectingTransport(memory_dial(servers[0], schedule),
                                  policy=fast_policy()),
            ReconnectingTransport(memory_dial(servers[1]),
                                  policy=fast_policy()),
        ]
        client = connect_client(transports, supported_modes=["pir2"])
        slots = [client.candidate_slots(f"s{i}.com/p")[0] for i in range(4)]
        assert client.get_slots(slots) == [db.get_slot(s) for s in slots]
        assert transports[0].reconnects == 1
        client.close()

    def test_dropped_frames_recovered_one_request_at_a_time(self):
        # One outstanding request per transport: a silently lost frame
        # leaves the synchronous inbox empty, which *is* the public
        # failure event that triggers replay.
        db = build_db(probes=1)
        servers = party_servers(db, probes=1)
        schedule = FaultSchedule.script(("send", 2, "drop"),
                                        ("recv", 4, "drop"))
        transports = [
            ReconnectingTransport(memory_dial(servers[0], schedule),
                                  policy=fast_policy()),
            ReconnectingTransport(memory_dial(servers[1]),
                                  policy=fast_policy()),
        ]
        client = connect_client(transports, supported_modes=["pir2"])
        for i in range(6):
            slot = client.candidate_slots(f"s{i}.com/p")[0]
            assert client.get_slot(slot) == db.get_slot(slot)
        assert schedule.pending == 0
        assert transports[0].reconnects >= 1
        client.close()

    def test_get_slots_deadline_expires_instead_of_hanging(self):
        db = build_db()
        servers = party_servers(db)
        schedule = FaultSchedule(
            [FaultRule("recv", 1, "delay", delay_seconds=0.05)])
        client_end, server_end = transport_pair("c0", "s0")
        servers[0].serve_transport(server_end)
        slow = FaultyTransport(client_end, schedule)
        other_end, other_server_end = transport_pair("c1", "s1")
        servers[1].serve_transport(other_server_end)
        client = connect_client([slow, other_end], supported_modes=["pir2"])
        slots = [client.candidate_slots("s1.com/p")[0],
                 client.candidate_slots("s2.com/p")[0]]
        with pytest.raises(DeadlineError):
            client.get_slots(slots, deadline_seconds=0.02)


class TestLossySimulatedNetwork:
    def test_gets_complete_over_lossy_paths(self):
        db = build_db(probes=1)
        servers = party_servers(db, probes=1)
        clock = SimClock()
        paths = [NetworkPath(clock, name=f"party{p}",
                             rng=np.random.default_rng(100 + p))
                 for p in (0, 1)]

        def sim_dial(server, path):
            def dial():
                client_end, server_end = sim_transport_pair(path)
                server.serve_transport(server_end)
                return client_end
            return dial

        transports = [
            ReconnectingTransport(sim_dial(servers[p], paths[p]),
                                  policy=fast_policy(12))
            for p in (0, 1)
        ]
        client = connect_client(transports, supported_modes=["pir2"])
        # Loss switches on only after the handshake: a client that never
        # reached hello has no session to resume.
        for path in paths:
            path.loss_rate = 0.25
        for i in range(12):
            slot = client.candidate_slots(f"s{i}.com/p")[0]
            assert client.get_slot(slot) == db.get_slot(slot)
        assert sum(path.frames_dropped for path in paths) > 0
        assert sum(t.reconnects for t in transports) > 0
        client.close()

    def test_seeded_loss_is_reproducible(self):
        drops = []
        for _run in range(2):
            clock = SimClock()
            path = NetworkPath(clock, loss_rate=0.3,
                               rng=np.random.default_rng(42))
            for _ in range(50):
                path.transfer("up", 100)
            drops.append(path.frames_dropped)
        assert drops[0] == drops[1] > 0


class TestTcpKillAndReconnect:
    def test_session_killed_mid_pipelined_batch_completes(self):
        db = build_db()
        servers = party_servers(db)
        listeners = [ZltpEventLoopServer(server) for server in servers]
        schedule = FaultSchedule.script(("recv", 3, "close"))

        def dial_faulty():
            return FaultyTransport(connect_tcp(*listeners[0].address),
                                   schedule)

        def dial_plain():
            return connect_tcp(*listeners[1].address)

        try:
            transports = [
                ReconnectingTransport(dial_faulty, policy=fast_policy()),
                ReconnectingTransport(dial_plain, policy=fast_policy()),
            ]
            client = connect_client(transports, supported_modes=["pir2"])
            slots = [client.candidate_slots(f"s{i}.com/p")[0]
                     for i in range(6)]
            records = client.get_slots(slots)
            assert records == [db.get_slot(slot) for slot in slots]
            assert transports[0].reconnects == 1
            # 6 requests sent, 2 answered before the injected close: the
            # remaining 4 were replayed verbatim on the new connection.
            assert transports[0].frames_replayed == 4
            client.close()
        finally:
            for listener in listeners:
                listener.stop()


class TestShardDeath:
    def test_dead_shard_is_repaired_and_fanout_retried(self):
        db = BlobDatabase(8, 24)
        for i in range(db.n_slots):
            db.set_slot(i, f"cell-{i}".encode())
        executor = ScanExecutor(max_workers=2)
        deployment = ShardedDeployment(db, prefix_bits=2, executor=executor)
        # One data server loses its backing store mid-deployment.
        deployment.front_ends[0].data_servers[1].database = None
        before = REGISTRY.counter("resilience_retries_total").value(
            layer="engine")
        target = 100
        k0, k1 = gen_dpf(target, db.domain_bits)
        a0 = deployment.answer(0, k0.to_bytes())
        a1 = deployment.answer(1, k1.to_bytes())
        record = bytes(x ^ y for x, y in zip(a0, a1))
        assert record.rstrip(b"\x00") == f"cell-{target}".encode()
        assert deployment.front_ends[0].shards_repaired == 1
        assert executor.tasks_retried >= 1
        assert deployment.front_ends[0].last_fanout.retries >= 1
        after = REGISTRY.counter("resilience_retries_total").value(
            layer="engine")
        assert after >= before + 1
        executor.shutdown()

    def test_dead_shard_during_batch_scan_is_repaired(self):
        db = BlobDatabase(8, 24)
        for i in range(db.n_slots):
            db.set_slot(i, f"cell-{i}".encode())
        executor = ScanExecutor(max_workers=2)
        deployment = ShardedDeployment(db, prefix_bits=2, executor=executor)
        deployment.front_ends[1].data_servers[3].database = None
        targets = [7, 100, 200]
        keys = [gen_dpf(t, db.domain_bits) for t in targets]
        share0 = deployment.answer_batch(0, [k0.to_bytes() for k0, _ in keys])
        share1 = deployment.answer_batch(1, [k1.to_bytes() for _, k1 in keys])
        for target, a0, a1 in zip(targets, share0, share1):
            record = bytes(x ^ y for x, y in zip(a0, a1))
            assert record.rstrip(b"\x00") == f"cell-{target}".encode()
        assert deployment.front_ends[1].shards_repaired == 1
        assert executor.tasks_retried >= 1
        executor.shutdown()

    def test_shard_retry_surfaces_in_backend_report_and_session_stats(self):
        db = build_db(probes=1)
        executor = ScanExecutor(max_workers=2)
        servers = party_servers(db, probes=1, executor=executor,
                                options={"prefix_bits": 2})
        transports = []
        for server in servers:
            client_end, server_end = transport_pair()
            server.serve_transport(server_end)
            transports.append(client_end)
        client = connect_client(transports, supported_modes=["pir2"])
        # Kill a shard *after* the handshake built the mode servers.
        sharded = servers[0].mode_server("pir2")._pir
        sharded.front_end.data_servers[0].database = None
        assert client.get("s3.com/p") == b"res-3"
        report = executor.backend_report()
        assert report["pir2"].retries >= 1
        assert servers[0].stats_for("pir2").retries >= 1
        client.close()
        executor.shutdown()


class TestEndpointFailoverAcceptance:
    """The ISSUE acceptance scenario: a pir2 endpoint dies mid-session.

    Two TCP listeners per party share one logical server; the client
    dials through :func:`connect_tcp_resilient`. The primary party-0
    listener is killed between two identical pipelined batches; the
    second batch must decode byte-identically via reconnect + failover,
    with the retries visible in ``/metrics.json``.
    """

    def test_killed_endpoint_fails_over_with_identical_records(self):
        db = build_db()
        logical = party_servers(db)
        primaries = [ZltpEventLoopServer(server) for server in logical]
        replicas = [ZltpEventLoopServer(server) for server in logical]
        sidecar = StatsTcpServer(lambda: {"metrics": REGISTRY.as_dict()})
        policy_args = dict(max_attempts=6, base_delay=0.01, jitter=0.0)
        try:
            transports = [
                connect_tcp_resilient(
                    [primaries[party].address, replicas[party].address],
                    policy=RetryPolicy(**policy_args))
                for party in (0, 1)
            ]
            client = connect_client(transports, supported_modes=["pir2"])
            slots = [client.candidate_slots(f"s{i}.com/p")[0]
                     for i in range(8)]
            baseline = client.get_slots(slots)
            assert baseline == [db.get_slot(slot) for slot in slots]

            primaries[0].stop()

            again = client.get_slots(slots)
            assert again == baseline  # byte-identical decoded records
            assert transports[0].reconnects >= 1
            assert transports[0].pool.failovers >= 1

            metrics = json.loads(
                http_get(sidecar.address, "/metrics.json"))["metrics"]
            assert metric_value(metrics, "resilience_retries_total",
                                layer="transport") > 0
            assert metric_value(metrics, "transport_reconnects_total",
                                outcome="ok") > 0
            assert metric_value(metrics, "resilience_failovers_total",
                                layer="transport") > 0
            client.close()
        finally:
            sidecar.stop()
            for listener in primaries + replicas:
                listener.stop()
