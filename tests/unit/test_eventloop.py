"""Tests for the selector-reactor session core."""

import socket
import threading
import time

import numpy as np
import pytest

from repro.core.zltp import messages as msg
from repro.core.zltp.admission import AdmissionController
from repro.core.zltp.client import connect_client
from repro.core.zltp.eventloop import ZltpEventLoopServer
from repro.core.zltp.modes import MODE_PIR2
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.serving import create_tcp_server
from repro.core.zltp.sockets import connect_tcp
from repro.core.zltp.wire import encode_frame
from repro.crypto.dpf import gen_dpf
from repro.errors import ReproError, TransportError
from repro.obs.metrics import REGISTRY
from repro.pir.database import BlobDatabase
from repro.pir.keyword import KeywordIndex

SALT = b"eventloop-test"


def build_db():
    db = BlobDatabase(8, 64)
    index = KeywordIndex(db, probes=2, salt=SALT)
    for i in range(10):
        index.put(f"s{i}.com/p", f"evt-{i}".encode())
    return db


def make_logical(db=None):
    return ZltpServer(db if db is not None else build_db(),
                      modes=[MODE_PIR2], party=0, salt=SALT, probes=2)


def make_pair(**kwargs):
    return [
        ZltpEventLoopServer(
            ZltpServer(build_db(), modes=[MODE_PIR2], party=party,
                       salt=SALT, probes=2), **kwargs)
        for party in (0, 1)
    ]


def wait_for(predicate, deadline=5.0, step=0.01):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


class TestEventLoopSessions:
    def test_get_over_eventloop(self):
        servers = make_pair()
        try:
            transports = [connect_tcp(*srv.address) for srv in servers]
            client = connect_client(transports)
            assert client.get("s4.com/p") == b"evt-4"
            client.close()
        finally:
            for server in servers:
                server.stop()

    def test_pipelined_gets_one_session(self):
        servers = make_pair()
        try:
            transports = [connect_tcp(*srv.address) for srv in servers]
            client = connect_client(transports)
            slots = [client.candidate_slots(f"s{i}.com/p")[0]
                     for i in range(4)]
            records = client.get_slots(slots)
            assert records == [client.get_slot(slot) for slot in slots]
            client.close()
        finally:
            for server in servers:
                server.stop()

    def test_session_accounting_balances(self):
        server = ZltpEventLoopServer(make_logical())
        try:
            transports = [connect_tcp(*server.address) for _ in range(3)]
            for transport in transports:
                transport.send_frame(
                    msg.encode_message(msg.ClientHello(["pir2"])))
                reply = msg.decode_message(transport.recv_frame())
                assert isinstance(reply, msg.ServerHello)
            assert server.active_connections == 3
            assert server.server.sessions_active == 3
            for transport in transports:
                transport.close()
            assert wait_for(lambda: server.active_connections == 0)
            assert server.server.sessions_active == 0
        finally:
            server.stop()

    def test_hundreds_of_idle_sessions_on_one_thread(self):
        """The tentpole claim: N hundred sessions cost one service thread."""
        server = ZltpEventLoopServer(make_logical())
        socks = []
        try:
            for _ in range(200):
                socks.append(socket.create_connection(server.address,
                                                      timeout=5))
            assert wait_for(lambda: server.active_connections == 200)
            assert server.worker_count == 1  # the whole point
            assert server.sessions_accepted == 200
            # The reactor still answers work while holding them all.
            transport = connect_tcp(*server.address)
            transport.send_frame(
                msg.encode_message(msg.ClientHello(["pir2"])))
            reply = msg.decode_message(transport.recv_frame())
            assert isinstance(reply, msg.ServerHello)
            transport.close()
        finally:
            for sock in socks:
                sock.close()
            server.stop()

    def test_slow_loris_client_does_not_block_others(self):
        """A byte-at-a-time writer must not stall the reactor."""
        servers = make_pair()
        try:
            loris = socket.create_connection(servers[0].address, timeout=5)
            hello = encode_frame(msg.encode_message(msg.ClientHello(["pir2"])))
            # Drip half the hello one byte at a time...
            for i in range(len(hello) // 2):
                loris.sendall(hello[i:i + 1])
                time.sleep(0.002)
            # ...while a well-behaved client completes a whole private GET.
            transports = [connect_tcp(*srv.address) for srv in servers]
            client = connect_client(transports)
            assert client.get("s7.com/p") == b"evt-7"
            client.close()
            # The loris eventually finishes and is served too.
            for i in range(len(hello) // 2, len(hello)):
                loris.sendall(hello[i:i + 1])
            loris.settimeout(5)
            first = loris.recv(4096)
            assert first  # a ServerHello frame, not a hangup
            loris.close()
        finally:
            for server in servers:
                server.stop()

    def test_idle_sessions_are_reaped(self):
        server = ZltpEventLoopServer(make_logical(), idle_timeout=0.2,
                                     tick_seconds=0.05)
        try:
            sock = socket.create_connection(server.address, timeout=5)
            assert wait_for(lambda: server.active_connections == 1)
            sock.settimeout(5)
            data = sock.recv(65536)  # the idle-timeout error frame, then EOF
            assert b"idle-timeout" in data
            assert wait_for(lambda: server.active_connections == 0)
            assert server.idle_reaped == 1
            assert server.server.sessions_active == 0
            sock.close()
        finally:
            server.stop()

    def test_truncated_frame_is_surfaced(self):
        server = ZltpEventLoopServer(make_logical())
        try:
            sock = socket.create_connection(server.address, timeout=5)
            frame = encode_frame(b"x" * 64)
            sock.sendall(frame[: len(frame) // 2])
            sock.shutdown(socket.SHUT_WR)
            sock.settimeout(5)
            data = sock.recv(65536)
            assert b"truncated-frame" in data
            assert wait_for(lambda: server.truncated_frames == 1)
            sock.close()
        finally:
            server.stop()

    def test_bad_frame_gets_error_then_close(self):
        server = ZltpEventLoopServer(make_logical())
        try:
            transport = connect_tcp(*server.address)
            transport.send_frame(b"\x01garbage")
            reply = msg.decode_message(transport.recv_frame())
            assert isinstance(reply, msg.ErrorMessage)
            with pytest.raises(TransportError):
                transport.recv_frame()
            transport.close()
            assert wait_for(lambda: server.active_connections == 0)
        finally:
            server.stop()

    def test_handler_bug_sends_internal_error_and_server_survives(self):
        server = ZltpEventLoopServer(make_logical())
        try:
            class BoomSession:
                closed = False
                scan_pending = False

                def receive(self, frames):
                    pass

                def handle_frames(self, frames=()):
                    raise RuntimeError("handler bug")

                def close(self):
                    self.closed = True

            original = server.server.create_session
            server.server.create_session = lambda: BoomSession()
            crashed = connect_tcp(*server.address)
            crashed.send_frame(msg.encode_message(msg.ClientHello(["pir2"])))
            reply = msg.decode_message(crashed.recv_frame())
            assert isinstance(reply, msg.ErrorMessage)
            assert reply.code == "internal"
            crashed.close()
            # The reactor survived; healthy sessions still negotiate.
            server.server.create_session = original
            transport = connect_tcp(*server.address)
            transport.send_frame(msg.encode_message(msg.ClientHello(["pir2"])))
            assert isinstance(msg.decode_message(transport.recv_frame()),
                              msg.ServerHello)
            transport.close()
        finally:
            server.stop()

    def test_stop_is_deterministic_and_idempotent(self):
        server = ZltpEventLoopServer(make_logical())
        sock = socket.create_connection(server.address, timeout=5)
        assert wait_for(lambda: server.active_connections == 1)
        server.stop()
        assert server.worker_count == 0
        assert server.active_connections == 0
        with pytest.raises(OSError):
            # The listener is really gone: nothing accepts anymore.
            probe = socket.create_connection(server.address, timeout=0.5)
            # Linux may complete the TCP handshake into a dead backlog;
            # the read side must still see an immediate hangup.
            probe.settimeout(0.5)
            if probe.recv(1) == b"":
                probe.close()
                raise OSError("hangup")
        server.stop()  # idempotent
        sock.close()

    def test_session_gauge_sums_every_listener(self):
        """Each listener moves the process-wide gauge by its own +1/-1,
        so two listeners holding 2 + 1 sessions read 3, not 2."""
        gauge = REGISTRY.gauge("zltp_active_sessions")
        baseline = gauge.value()
        listeners = [ZltpEventLoopServer(make_logical()) for _ in range(2)]
        socks = []
        try:
            for listener, count in zip(listeners, (2, 1)):
                for _ in range(count):
                    socks.append(socket.create_connection(listener.address,
                                                          timeout=5))
            assert wait_for(lambda: sum(l.active_connections
                                        for l in listeners) == 3)
            assert gauge.value() == baseline + 3
            for sock in socks:
                sock.close()
            assert wait_for(lambda: gauge.value() == baseline)
        finally:
            for sock in socks:
                sock.close()
            for listener in listeners:
                listener.stop()
        assert gauge.value() == baseline


class SlowFirstScanDatabase(BlobDatabase):
    """A database whose first scan parks until the test releases it."""

    def __init__(self, domain_bits, blob_size):
        super().__init__(domain_bits, blob_size)
        self.scanning = threading.Event()
        self.release = threading.Event()
        self._first = True

    def _hold_first(self):
        if self._first:
            self._first = False
            self.scanning.set()
            self.release.wait(10)

    def xor_scan(self, select_bits):
        self._hold_first()
        return super().xor_scan(select_bits)

    def xor_scan_batch(self, select_matrix):
        self._hold_first()
        return super().xor_scan_batch(select_matrix)


class TestArrivalAdmission:
    """The reactor gates every GET read in a tick before answering any."""

    def test_backlog_behind_a_slow_scan_is_shed(self):
        db = SlowFirstScanDatabase(8, 64)
        gate = AdmissionController(deadline_seconds=0.01,
                                   initial_service_seconds=1.0)
        logical = ZltpServer(db, modes=[MODE_PIR2], party=0, salt=SALT,
                             probes=2, admission=gate)
        server = ZltpEventLoopServer(logical)
        key, _ = gen_dpf(3, db.domain_bits, rng=np.random.default_rng(0))

        def get(transport, request_id):
            transport.send_frame(msg.encode_message(
                msg.GetRequest(request_id=request_id,
                               payload=key.to_bytes())))

        transports = []
        try:
            for _ in range(5):
                transport = connect_tcp(*server.address, io_timeout=10)
                transport.send_frame(msg.encode_message(
                    msg.ClientHello(["pir2"])))
                assert isinstance(msg.decode_message(transport.recv_frame()),
                                  msg.ServerHello)
                transports.append(transport)
            first, later = transports[0], transports[1:]
            get(first, 0)
            assert db.scanning.wait(10)
            # The reactor is stuck in the first scan; four more GETs
            # queue up in the kernel meanwhile.
            for transport in later:
                get(transport, 1)
            db.release.set()
            assert isinstance(msg.decode_message(first.recv_frame()),
                              msg.GetResponse)
            replies = [msg.decode_message(t.recv_frame()) for t in later]
            shed = [r for r in replies if isinstance(r, msg.ErrorMessage)]
            # The first GET of the backlog finds the gate idle and is
            # admitted; the estimate sheds every one behind it.
            assert len(shed) == 3
            assert all(r.code == "overload" for r in shed)
            assert sum(isinstance(r, msg.GetResponse) for r in replies) == 1
            assert gate.queue_depth == 0
            # Shedding is the server's state, not the client's fault:
            # every shed session still gets an answer.
            for transport in later:
                get(transport, 2)
                reply = msg.decode_message(transport.recv_frame())
                assert isinstance(reply, msg.GetResponse)
                assert reply.request_id == 2
            assert gate.queue_depth == 0
            assert gate.shed == 3
        finally:
            db.release.set()
            for transport in transports:
                transport.close()
            server.stop()


class TestCreateTcpServer:
    def test_builds_the_reactor(self):
        server = create_tcp_server(None, make_logical())
        try:
            assert isinstance(server, ZltpEventLoopServer)
            transport = connect_tcp(*server.address)
            transport.send_frame(msg.encode_message(msg.ClientHello(["pir2"])))
            assert isinstance(msg.decode_message(transport.recv_frame()),
                              msg.ServerHello)
            transport.close()
        finally:
            server.stop()

    def test_a_named_core_raises_typed_error(self):
        with pytest.raises(ReproError, match="unknown session core"):
            create_tcp_server("threaded", make_logical())
