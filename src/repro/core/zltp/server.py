"""The ZLTP server endpoint.

One :class:`ZltpServer` is a *logical* server for one universe shard: it
owns the blob database, announces the universe's blob geometry in its
ServerHello ("the server indicates to the client the size of the
fixed-length blobs it is serving", §2), and serves private-GETs in whichever
negotiated mode each session chose. In the paper's deployment a CDN runs two
such logical servers (the non-colluding pair) across many machines; here the
:class:`~repro.pir.sharding.ShardedDeployment` plays the many-machines part.

Modes are looked up in the :mod:`repro.core.backend` registry — the server
has no per-mode code paths of its own, so a newly registered backend is
served without touching this module. Every answer call is accounted on a
shared :class:`~repro.core.backend.RequestStats` record, aggregated
per-mode on the server and optionally forwarded to a scan executor.

:class:`ZltpServerSession` is a pure state machine — messages in, messages
out — so the same code is exercised by in-memory transports, the network
simulator, and real TCP sockets.
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.core import backend as backend_registry
from repro.core.backend import (
    RequestStats,
    ServerContext,
    negotiate,
    timed_answer_batch,
)
from repro.core.zltp import messages as msg
from repro.core.zltp.transport import Transport
from repro.crypto.lwe import LweParams
from repro.errors import NegotiationError, ProtocolError, ReproError
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    REGISTRY,
    merge_snapshots,
    record_request_stats,
    snapshot_total,
)
from repro.obs.trace import span
from repro.pir.database import BlobDatabase


class _State(enum.Enum):
    AWAIT_HELLO = "await_hello"
    READY = "ready"
    CLOSED = "closed"


class ZltpServer:
    """A logical ZLTP server over one blob database.

    Attributes:
        database: the fixed-size-blob store being served.
        modes: canonical mode names served, in this server's preference
            order (default: every registered backend).
        party: this server's role in a multi-endpoint backend pair
            (0-based); only meaningful for modes with ``endpoints > 1``.
        salt: the universe's keyword-hash salt, announced to clients.
        probes: fixed probe count per keyword lookup (1 = plain hashing,
            >=2 = cuckoo).
        executor: optional :class:`~repro.pir.engine.ScanExecutor` that
            per-backend serving stats are forwarded to.
        options: free-form per-backend server options, passed through to
            every mode's ``from_context`` (e.g. ``prefix_bits`` to serve
            pir2 through a sharded front-end).
        flight: the always-on :class:`~repro.obs.flight.FlightRecorder`
            that retains recent/slow/errored request trace trees (pass
            one to tune capacities or the slow threshold).
        admission: optional
            :class:`~repro.core.zltp.admission.AdmissionController`; when
            attached, GETs that would blow their deadline are shed with a
            fast ``ErrorMessage("overload")`` instead of queued behind a
            doomed scan. Every transport reaches it through
            :meth:`ZltpServerSession.admit`.
    """

    def __init__(
        self,
        database: BlobDatabase,
        modes: Optional[List[str]] = None,
        party: int = 0,
        salt: bytes = b"",
        probes: int = 1,
        lwe_params: Optional[LweParams] = None,
        rng: Optional[np.random.Generator] = None,
        executor: Optional[Any] = None,
        options: Optional[Dict[str, Any]] = None,
        flight: Optional[FlightRecorder] = None,
        admission: Optional[Any] = None,
    ):
        self.database = database
        offered = list(modes) if modes is not None \
            else backend_registry.registered_modes()
        # Canonicalise aliases and validate names early (raises
        # NegotiationError on an unknown mode).
        self.modes = [backend_registry.resolve_mode(mode) for mode in offered]
        self.party = party
        self.salt = salt
        self.probes = probes
        self.executor = executor
        self.flight = flight if flight is not None else FlightRecorder()
        self.admission = admission
        self._lwe_params = lwe_params
        self._rng = rng
        self._options: Dict[str, Any] = dict(options or {})
        self._mode_servers: Dict[str, Any] = {}
        # One logical server is shared by every listener over it (replica
        # reactors run on their own threads) and read by the stats
        # sidecar, so the counters need their own lock.
        self._stats_lock = threading.Lock()
        self.sessions_opened = 0  # guarded-by: _stats_lock
        self.sessions_closed = 0  # guarded-by: _stats_lock
        self._stats_by_mode: Dict[str, RequestStats] = {}  # guarded-by: _stats_lock

    @property
    def sessions_active(self) -> int:
        """Sessions opened and not yet torn down.

        Transports must balance every :meth:`create_session` with a
        :meth:`ZltpServerSession.close` (the reactor does it in its
        connection-teardown path), so this gauge reconciles to zero on
        a drained server.
        """
        with self._stats_lock:
            return self.sessions_opened - self.sessions_closed

    def _note_session_closed(self) -> None:
        with self._stats_lock:
            self.sessions_closed += 1

    @property
    def gets_served(self) -> int:
        """Total private-GETs answered, across every mode."""
        with self._stats_lock:
            return sum(stats.queries for stats in self._stats_by_mode.values())

    def stats_for(self, mode: str) -> RequestStats:
        """A frozen snapshot of the serving stats for one mode."""
        canonical = backend_registry.resolve_mode(mode)
        with self._stats_lock:
            stats = self._stats_by_mode.get(canonical)
            snapshot = stats.copy() if stats is not None else RequestStats()
        return snapshot.freeze()

    def stats_by_mode(self) -> Dict[str, RequestStats]:
        """Frozen snapshots of the serving stats for every mode that served."""
        with self._stats_lock:
            return {mode: stats.copy().freeze()
                    for mode, stats in self._stats_by_mode.items()}

    def capability_snapshot(self) -> Dict[str, Any]:
        """Public capability + load metadata for discovery announces.

        Everything here is what an announce record carries: the served
        modes with their registry-derived metadata, this server's party,
        the sharded front-end's prefix width (0 when unsharded), and an
        aggregate load snapshot — live sessions, total queries, total
        scan seconds. All of it is deployment topology and aggregate
        counters; nothing is per-client or per-fetch.
        """
        with self._stats_lock:
            active = self.sessions_opened - self.sessions_closed
            queries = sum(s.queries for s in self._stats_by_mode.values())
            scan_seconds = sum(s.scan_seconds
                               for s in self._stats_by_mode.values())
        load = {
            "sessions_active": float(active),
            "queries": float(queries),
            "scan_seconds": float(scan_seconds),
        }
        if self.admission is not None:
            # Instantaneous queue depth (and the shed counter) — the
            # saturation signal discovery ranking sorts on first, so new
            # sessions route around a server that is already shedding.
            load.update(self.admission.load_snapshot())
        worker_snap = self.executor_metrics()
        if worker_snap is not None:
            # CPU time burned inside pool workers — the part of this
            # machine's load the parent-process counters cannot see.
            load["worker_busy_seconds"] = snapshot_total(
                worker_snap, "procpool_scan_seconds", field="sum")
        return {
            "modes": list(self.modes),
            "party": self.party,
            "prefix_bits": int(self._options.get("prefix_bits", 0)),
            "cost": backend_registry.capability_metadata(self.modes),
            "load": load,
        }

    def executor_metrics(self) -> Optional[Dict[str, Any]]:
        """The attached executor's worker-registry snapshot, if it has one."""
        if self.executor is None:
            return None
        snapshot = getattr(self.executor, "metrics_snapshot", None)
        if snapshot is None:
            return None
        return snapshot()

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The process registry merged with the executor's worker metrics.

        This is what the stats sidecar exposes: one snapshot in which
        ``procpool_scan_seconds{worker=...}`` from every scan process
        sits next to the parent's own counters, all in the mergeable
        format :func:`~repro.obs.metrics.merge_into` understands.
        """
        worker_snap = self.executor_metrics()
        if worker_snap is None:
            return merge_snapshots([REGISTRY.snapshot()])
        return merge_snapshots([REGISTRY.snapshot(), worker_snap])

    def record_stats(self, mode: str, delta: RequestStats) -> None:
        """Fold one session's answer-call delta into the per-mode totals.

        The same delta is forwarded to the attached scan executor (if
        any) and folded into the process-wide metrics registry, so engine
        reports, ``lightweb stats``, and benchmark JSON all see exactly
        the counters the protocol layer measured — one structure end to
        end.
        """
        with self._stats_lock:
            if mode not in self._stats_by_mode:
                self._stats_by_mode[mode] = RequestStats()
            self._stats_by_mode[mode].merge(delta)
        if self.executor is not None:
            record = getattr(self.executor, "record_backend", None)
            if record is not None:
                record(mode, delta)
        record_request_stats(mode, delta)

    def mode_server(self, mode: str):
        """Get (building lazily) the server half of a mode.

        Modes that snapshot the database at build time (pir-lwe's matrix,
        enclave-oram's ORAM load — ``snapshots_database`` in the registry)
        are rebuilt when the database has changed since — otherwise a
        publisher re-push (§3.1) would be visible in ``pir2`` but stale in
        the other modes.
        """
        spec = backend_registry.get_backend(mode)
        cached = self._mode_servers.get(spec.name)
        if cached is not None:
            server, built_version = cached
            if not spec.snapshots_database or \
                    built_version == self.database.version:
                return server
        ctx_options = dict(self._options)
        if self.executor is not None:
            ctx_options.setdefault("executor", self.executor)
        server = spec.build_server(self.database, ServerContext(
            party=self.party, lwe_params=self._lwe_params, rng=self._rng,
            options=ctx_options,
        ))
        self._mode_servers[spec.name] = (server, self.database.version)
        return server

    def create_session(self) -> "ZltpServerSession":
        """Open a new protocol session."""
        with self._stats_lock:
            self.sessions_opened += 1
        return ZltpServerSession(self)

    def serve_transport(self, transport) -> "ZltpServerSession":
        """Attach a session to a synchronous-delivery transport.

        Every frame the client sends is decoded, run through the session
        state machine, and the replies are sent back on the same transport.
        """
        session = self.create_session()

        def handle(frame: bytes) -> None:
            for reply in session.handle_frame(frame):
                transport.send_frame(reply)
            if session.closed:
                transport.close()

        transport.receiver = handle
        return session


class _GetRun:
    """Consecutive pipelined GetRequests, answered by one batched scan.

    ``holder`` is the gate that admitted the run (released exactly once)
    and ``shed`` the public overload detail when the gate refused it. A
    run with neither has not been ruled on, and may still grow.
    """

    __slots__ = ("gets", "holder", "shed")

    def __init__(self) -> None:
        self.gets: List[msg.GetRequest] = []
        self.holder: Optional[Any] = None
        self.shed: Optional[str] = None

    @property
    def open(self) -> bool:
        return self.holder is None and self.shed is None


class _BadFrame(str):
    """The decode error of a frame that ends the session."""


class ZltpServerSession:
    """Per-connection protocol state machine.

    Work goes through three steps: :meth:`receive` decodes frames into
    an inbox, :meth:`admit` puts its GET runs to the admission gate, and
    :meth:`handle_frames` answers it. The reactor receives and admits
    across all its connections before it answers any (DESIGN.md,
    "Arrival-time admission"); in-memory transports run all three per
    frame.

    Attributes:
        stats: this session's own :class:`RequestStats` — the same deltas
            that are folded into the server's per-mode totals.
    """

    def __init__(self, server: ZltpServer):
        self._server = server
        self._state = _State.AWAIT_HELLO
        self._mode_name: Optional[str] = None
        self._mode = None
        #: Decoded, not yet answered: messages, runs, a final bad frame.
        self._inbox: Deque[Any] = deque()
        self.stats = RequestStats()

    @property
    def closed(self) -> bool:
        """Whether the session has terminated."""
        return self._state is _State.CLOSED

    def _mark_closed(self) -> None:
        """Terminal-state transition; notifies the server exactly once."""
        if self._state is _State.CLOSED:
            return
        self._state = _State.CLOSED
        self._server._note_session_closed()

    def close(self) -> None:
        """Tear the session down (idempotent).

        Transports call this from their connection-teardown paths so a
        peer that vanishes mid-session — early EOF, a reset, a handler
        crash — still balances the server's session accounting; a
        session that already closed itself through the state machine is
        left as-is. Admitted GETs that were never answered are released.
        """
        self._mark_closed()
        while self._inbox:
            self._release(self._inbox.popleft())

    @property
    def mode(self) -> Optional[str]:
        """The negotiated mode name, once the hello exchange completed."""
        return self._mode_name

    def receive(self, frames: Sequence[bytes]) -> None:
        """Decode a burst of frames into the inbox without answering it.

        Consecutive GetRequests join one run, so a pipelining client's
        GETs reach the mode's single-pass batched scan (§5.1). A frame
        that fails to decode ends the burst: the session will answer it
        with a ``bad-message`` error and close.
        """
        for frame in frames:
            if self._ended():
                return
            try:
                message = msg.decode_message(frame)
            except ProtocolError as exc:
                self._inbox.append(_BadFrame(str(exc)))
                return
            self._enqueue(message)

    def _ended(self) -> bool:
        """Whether nothing received from now on can be answered."""
        if self._state is _State.CLOSED:
            return True
        return bool(self._inbox) and \
            isinstance(self._inbox[-1], (msg.Bye, _BadFrame))

    def _enqueue(self, message: Any) -> None:
        if not isinstance(message, msg.GetRequest):
            self._inbox.append(message)
            return
        run = self._inbox[-1] if self._inbox else None
        if not isinstance(run, _GetRun) or not run.open:
            run = _GetRun()
            self._inbox.append(run)
        run.gets.append(message)

    def admit(self) -> None:
        """Ask the admission gate about every queued GET run, in order.

        A no-op without a gate. A shed run stays queued and is answered
        with one ``overload`` error per request.
        """
        gate = self._server.admission
        if gate is None:
            return
        for run in self._inbox:
            if isinstance(run, _GetRun) and run.open:
                run.shed = gate.try_admit(len(run.gets))
                if run.shed is None:
                    run.holder = gate

    @property
    def scan_pending(self) -> bool:
        """Whether answering the inbox would scan (a GET run not shed)."""
        return any(isinstance(item, _GetRun) and item.shed is None
                   for item in self._inbox)

    def handle_frames(self, frames: Sequence[bytes] = ()) -> List[bytes]:
        """Receive ``frames``, then admit and answer everything queued.

        Runs of consecutive GetRequests in the ready state are answered
        with one ``answer_batch`` call; any other message goes through
        the one-message state machine in order.
        """
        self.receive(frames)
        return [msg.encode_message(reply) for reply in self._respond()]

    def handle_frame(self, frame: bytes) -> List[bytes]:
        """Decode one frame, advance the state machine, encode the replies."""
        return self.handle_frames([frame])

    def handle(self, message) -> List[Any]:
        """Advance the state machine by one message; return reply messages."""
        if not self._ended():
            self._enqueue(message)
        return self._respond()

    def _respond(self) -> List[Any]:
        """Admit, then answer, the inbox in order."""
        self.admit()
        replies: List[Any] = []
        while self._inbox:
            item = self._inbox.popleft()
            if self._state is _State.CLOSED:
                self._release(item)
            elif isinstance(item, _GetRun):
                replies.extend(self._answer_run(item))
            elif isinstance(item, _BadFrame):
                self._mark_closed()
                replies.append(msg.ErrorMessage("bad-message", str(item)))
            else:
                replies.extend(self._step(item))
        return replies

    @staticmethod
    def _release(item: Any, service_seconds: Optional[float] = None) -> None:
        """Balance the admission of a run, exactly once."""
        if isinstance(item, _GetRun) and item.holder is not None:
            gate, item.holder = item.holder, None
            gate.release(len(item.gets), service_seconds=service_seconds)

    def _account(self, delta: RequestStats) -> None:
        """Fold an answer-call delta into the session and server stats."""
        self.stats.merge(delta)
        if self._mode_name is not None:
            self._server.record_stats(self._mode_name, delta)

    def _answer_run(self, run: _GetRun) -> List[Any]:
        """Answer one run of pipelined GetRequests in one batched scan."""
        if self._state is not _State.READY:
            # A GET before the hello: the state machine rejects it.
            self._release(run)
            return self._step(run.gets[0])
        if run.shed is not None:
            # Shed the whole run: one error per request preserves the 1:1
            # request/reply pairing, and the session stays READY —
            # overload is the *server's* state, not a client fault.
            return [msg.ErrorMessage("overload", run.shed)] * len(run.gets)
        service_seconds = None
        delta = RequestStats()
        try:
            with self._server.flight.capture():
                with span("zltp.session.get", mode=self._mode_name,
                          batch=len(run.gets)) as sp:
                    answers = timed_answer_batch(
                        self._mode, [g.payload for g in run.gets], delta)
                    sp.annotate(queries=delta.queries,
                                bytes_up=delta.bytes_up,
                                bytes_down=delta.bytes_down)
            service_seconds = sp.elapsed
        except ReproError as exc:
            # Mode-level failures (bad DPF key, malformed LWE query, broken
            # seal) are the client's fault; report and tear down.
            self._mark_closed()
            return [msg.ErrorMessage("protocol", str(exc))]
        finally:
            self._release(run, service_seconds)
        self._account(delta)
        return [msg.GetResponse(request_id=request.request_id, payload=answer)
                for request, answer in zip(run.gets, answers)]

    def _step(self, message) -> List[Any]:
        """Advance the state machine by one non-GET message."""
        try:
            return self._dispatch(message)
        except NegotiationError as exc:
            self._mark_closed()
            return [msg.ErrorMessage("negotiation", str(exc))]
        except ReproError as exc:
            self._mark_closed()
            return [msg.ErrorMessage("protocol", str(exc))]

    def _dispatch(self, message) -> List[Any]:
        if isinstance(message, msg.Bye):
            self._mark_closed()
            return []
        if self._state is _State.AWAIT_HELLO:
            if not isinstance(message, msg.ClientHello):
                raise ProtocolError(
                    f"expected ClientHello, got {type(message).__name__}"
                )
            return [self._do_hello(message)]
        # READY state.
        if isinstance(message, msg.SetupRequest):
            return [msg.SetupResponse(params=self._mode.setup())]
        raise ProtocolError(f"unexpected {type(message).__name__} in ready state")

    def _do_hello(self, hello: msg.ClientHello) -> msg.ServerHello:
        if hello.version != msg.PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version {hello.version} unsupported "
                f"(server speaks {msg.PROTOCOL_VERSION})"
            )
        mode_name = negotiate(hello.supported_modes, self._server.modes)
        self._mode_name = mode_name
        self._mode = self._server.mode_server(mode_name)
        self._state = _State.READY
        db = self._server.database
        return msg.ServerHello(
            blob_size=db.blob_size,
            domain_bits=db.domain_bits,
            mode=mode_name,
            probes=self._server.probes,
            salt=self._server.salt,
            mode_params=self._mode.hello_params(),
        )


__all__ = ["ZltpServer", "ZltpServerSession"]
