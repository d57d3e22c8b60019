"""Tests for the admission-control gate and its session integration."""

import pytest

from repro.core.zltp import messages as msg
from repro.core.zltp.admission import AdmissionController
from repro.core.zltp.client import connect_client
from repro.core.zltp.modes import MODE_PIR2
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.transport import transport_pair
from repro.errors import OverloadError, ReproError
from repro.pir.database import BlobDatabase
from repro.pir.keyword import KeywordIndex

SALT = b"admission-test"


class FakeClock:
    """Deterministic monotonic clock for the inter-departure estimator."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def gated(clock=None, **kwargs):
    gate = AdmissionController(**kwargs)
    if clock is not None:
        gate._clock = clock
    return gate


class TestControllerDecisions:
    def test_validation(self):
        with pytest.raises(ReproError):
            AdmissionController(deadline_seconds=0)
        with pytest.raises(ReproError):
            AdmissionController(max_queue_depth=0)
        with pytest.raises(ReproError):
            AdmissionController(ewma_alpha=0)
        with pytest.raises(ReproError):
            AdmissionController(ewma_alpha=1.5)
        with pytest.raises(ReproError):
            AdmissionController(initial_service_seconds=-1)
        gate = AdmissionController()
        with pytest.raises(ReproError):
            gate.try_admit(0)
        with pytest.raises(ReproError):
            gate.release(0)

    def test_idle_gate_always_admits(self):
        # Even a wildly inflated service estimate cannot shed at idle:
        # one batch cannot overload an idle server, and admitting is
        # what keeps the estimator fed (see the death-spiral test).
        gate = gated(deadline_seconds=0.01, max_queue_depth=64,
                     initial_service_seconds=100.0)
        assert gate.try_admit(4) is None
        assert gate.queue_depth == 4

    def test_busy_gate_sheds_on_queue_depth(self):
        gate = gated(deadline_seconds=100.0, max_queue_depth=3)
        assert gate.try_admit(2) is None
        detail = gate.try_admit(2)
        assert detail is not None and "queue depth" in detail
        assert gate.queue_depth == 2
        assert gate.shed == 2

    def test_busy_gate_sheds_on_predicted_wait(self):
        gate = gated(deadline_seconds=0.1, max_queue_depth=64,
                     initial_service_seconds=0.04)
        assert gate.try_admit(1) is None
        # (1 + 2) * 0.04 = 0.12 > 0.1 -> shed, with a public detail.
        detail = gate.try_admit(2)
        assert detail is not None and "deadline" in detail
        # A smaller batch still fits: (1 + 1) * 0.04 = 0.08 <= 0.1.
        assert gate.try_admit(1) is None

    def test_release_balances_and_clamps(self):
        gate = gated()
        gate.try_admit(3)
        gate.release(2)
        assert gate.queue_depth == 1
        gate.release(5)  # over-release clamps at zero, never negative
        assert gate.queue_depth == 0

    def test_snapshot_keys(self):
        gate = gated()
        gate.try_admit(1)
        snap = gate.snapshot()
        assert snap["queue_depth"] == 1
        assert snap["admitted"] == 1 and snap["shed"] == 0
        load = gate.load_snapshot()
        assert set(load) == {"admission_queue_depth", "admission_shed",
                             "admission_service_seconds"}
        assert load["admission_queue_depth"] == 1.0


class TestServiceEstimator:
    def test_response_time_feeds_ewma_when_alone(self):
        clock = FakeClock()
        gate = gated(clock)
        gate.try_admit(1)
        clock.advance(10.0)  # stale wall gap must not matter: min() wins
        gate.release(1, service_seconds=0.04)
        # Inter-departure since the busy-period start is 10s; the
        # reported response time is the tighter bound.
        assert gate.service_seconds_estimate == pytest.approx(0.04)

    def test_batch_wall_time_spread_over_queries(self):
        clock = FakeClock()
        gate = gated(clock)
        gate.try_admit(4)
        clock.advance(0.08)
        gate.release(4, service_seconds=0.08)
        assert gate.service_seconds_estimate == pytest.approx(0.02)

    def test_queueing_does_not_inflate_estimate(self):
        # The regression the load harness flushed out: under load the
        # reported batch wall time is a *response* time (queueing wait
        # included). Feeding it to the EWMA directly makes the gate
        # believe service cost grew with load and shed nearly
        # everything. The inter-departure minimum must keep the
        # estimate at the true drain cost.
        clock = FakeClock()
        gate = gated(clock, deadline_seconds=1.0)
        gate.try_admit(10)
        for waited in range(1, 11):
            clock.advance(0.05)  # departures spaced by true service time
            gate.release(1, service_seconds=0.05 * waited)
        assert gate.service_seconds_estimate == pytest.approx(0.05, rel=0.01)

    def test_inflated_estimate_recovers_at_idle(self):
        # Death-spiral regression: a transiently inflated estimate must
        # not shed forever. Idle admits keep observations flowing, and
        # each one decays the EWMA back toward the true cost.
        clock = FakeClock()
        gate = gated(clock, deadline_seconds=0.1,
                     initial_service_seconds=50.0)
        for _ in range(40):
            assert gate.try_admit(1) is None  # idle exemption
            clock.advance(0.01)
            gate.release(1, service_seconds=0.01)
        assert gate.service_seconds_estimate < 0.05
        # ...at which point depth-2 admissions fit the deadline again.
        assert gate.try_admit(1) is None
        assert gate.try_admit(1) is None
        assert gate.shed == 0


def build_pir2_pair(gates):
    servers = []
    transports = []
    for party in (0, 1):
        db = BlobDatabase(9, 96)
        index = KeywordIndex(db, probes=2, salt=SALT)
        for i in range(20):
            index.put(f"site{i}.com/page", f"content-{i}".encode())
        server = ZltpServer(db, modes=[MODE_PIR2], party=party, salt=SALT,
                            probes=2, admission=gates[party])
        client_end, server_end = transport_pair()
        server.serve_transport(server_end)
        servers.append(server)
        transports.append(client_end)
    return servers, transports


class TestSessionIntegration:
    def test_shed_get_keeps_session_usable(self):
        # Occupy both gates so the next admit decision runs busy and
        # trips the depth cap; the client must see OverloadError, and
        # after the backlog drains the *same* session must serve again.
        gates = [AdmissionController(deadline_seconds=10.0,
                                     max_queue_depth=1) for _ in range(2)]
        _, transports = build_pir2_pair(gates)
        client = connect_client(transports)
        for gate in gates:
            gate.try_admit(1)
        with pytest.raises(OverloadError, match="overload|queue depth"):
            client.get_slot(3)
        for gate in gates:
            gate.release(1)
        assert client.get("site3.com/page") == b"content-3"
        client.close()
        assert all(gate.shed == 1 for gate in gates)

    def test_batch_shed_preserves_reply_pairing(self):
        # A shed pipelined run answers *every* request with its own
        # error frame, so the streams stay aligned and the client can
        # drain them all before raising.
        gates = [AdmissionController(deadline_seconds=10.0,
                                     max_queue_depth=1) for _ in range(2)]
        _, transports = build_pir2_pair(gates)
        client = connect_client(transports)
        for gate in gates:
            gate.try_admit(1)
        with pytest.raises(OverloadError, match="shed 6 of 6"):
            client.get_slots([1, 2, 3])
        for gate in gates:
            gate.release(1)
        assert len(client.get_slots([1, 2, 3])) == 3
        client.close()

    def test_eventloop_batch_path_sheds_whole_run(self):
        # The session's one GET path (handle_frames): a shed run returns
        # one overload error per pending GET.
        db = BlobDatabase(8, 64)
        gate = AdmissionController(deadline_seconds=10.0, max_queue_depth=1)
        server = ZltpServer(db, modes=[MODE_PIR2], party=0, salt=SALT,
                            probes=2, admission=gate)
        session = server.create_session()
        hello = session.handle(
            msg.ClientHello(supported_modes=[MODE_PIR2]))[0]
        assert isinstance(hello, msg.ServerHello)
        gate.try_admit(1)
        frames = [msg.encode_message(m)
                  for m in (msg.GetRequest(request_id=7, payload=b"\x00" * 32),
                            msg.GetRequest(request_id=8, payload=b"\x00" * 32))]
        replies = [msg.decode_message(raw)
                   for raw in session.handle_frames(frames)]
        assert len(replies) == 2
        assert all(isinstance(r, msg.ErrorMessage) and r.code == "overload"
                   for r in replies)
        assert not session.closed
        assert gate.shed == 2

    def test_unanswered_admissions_are_released(self):
        # The reactor admits a tick's GETs before answering any; a
        # session torn down in between must hand its admissions back,
        # and GETs behind a Bye are never admitted at all.
        db = BlobDatabase(8, 64)
        gate = AdmissionController(deadline_seconds=10.0)
        server = ZltpServer(db, modes=[MODE_PIR2], party=0, salt=SALT,
                            probes=2, admission=gate)
        get = msg.GetRequest(request_id=1, payload=b"\x00" * 32)
        session = server.create_session()
        session.handle(msg.ClientHello(supported_modes=[MODE_PIR2]))
        session.receive([msg.encode_message(get)] * 2)
        session.admit()
        assert gate.queue_depth == 2
        session.close()
        assert gate.queue_depth == 0
        assert session.handle_frames() == []

        session = server.create_session()
        session.handle(msg.ClientHello(supported_modes=[MODE_PIR2]))
        session.receive([msg.encode_message(msg.Bye()),
                         msg.encode_message(get)])
        session.admit()
        assert gate.queue_depth == 0
        assert session.handle_frames() == []
        assert session.closed
        assert gate.admitted == 2

    def test_load_snapshot_reaches_capability_announce(self):
        db = BlobDatabase(8, 64)
        gate = AdmissionController()
        gate.try_admit(2)
        server = ZltpServer(db, modes=[MODE_PIR2], party=0, salt=SALT,
                            probes=2, admission=gate)
        load = server.capability_snapshot()["load"]
        assert load["admission_queue_depth"] == 2.0
