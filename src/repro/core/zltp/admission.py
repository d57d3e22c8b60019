"""Server-side admission control: shed requests a deadline cannot survive.

Without a gate, a saturated PIR server queues every arriving GET behind a
linear database scan; latency grows with queue depth until *every* client
blows its deadline and goodput collapses to zero — the classic closed-loop
congestion collapse SABRE-style systems bound with admission control. The
fix is to reject work *early and cheaply*: a request that would wait longer
than the deadline it ships under is answered with a fast
``ErrorMessage("overload")`` (microseconds) instead of a doomed scan
(milliseconds–seconds), so the capacity that remains serves requests that
can still succeed.

:class:`AdmissionController` is the gate. It tracks two aggregate, public
quantities — the number of admitted-and-unfinished queries (queue depth)
and an EWMA of per-query service time — and sheds a new batch when other
work is already in flight and either

* the queue depth would exceed ``max_queue_depth``, or
* the estimated time to drain the queue *including the new batch*
  (``(in_flight + n) * ewma_service_seconds``) would exceed
  ``deadline_seconds``.

A batch arriving at an **idle** gate is always admitted: an idle server
cannot be overloaded by one batch, and admitting guarantees the
estimator keeps seeing fresh observations (no admissions would mean no
samples, so a transiently inflated estimate could never decay).

The estimator itself must not confuse *queueing* with *service*. The
reported batch wall time is a **response** time — under load it
includes the wait behind everything admitted earlier, so feeding it to
the EWMA directly makes the gate believe service cost grew with load
and shed nearly everything (the estimate chases ``depth x service``,
a positive feedback loop). The gate therefore takes, per release, the
minimum of two overestimates of per-query cost:

* the reported response time (exact when the batch had the server to
  itself, inflated by queueing when it did not), and
* the **inter-departure time** since the previous release (exact when
  the server stayed busy — a work-conserving bottleneck starts the
  next query the moment one departs — inflated by idle gaps when it
  did not).

Whichever regime the server is in, one of the two is tight, so the
``min`` tracks true drain cost at idle *and* at saturation.

Both inputs are aggregate load statistics, never per-client or
per-request content, so the decision leaks nothing about what anyone is
fetching (the same zero-leakage discipline as the metrics registry).

One controller covers every transport. The gate hangs off
:class:`~repro.core.zltp.server.ZltpServer`, and the only caller of
:meth:`AdmissionController.try_admit` is
:meth:`~repro.core.zltp.server.ZltpServerSession.admit`, once per run of
pipelined GETs; the session's one GET path releases what it admitted.
In-memory transports reach it frame by frame. The TCP reactor
(:class:`~repro.core.zltp.eventloop.ZltpEventLoopServer`) reads and
decodes every readable connection first, then admits every GET run of
the tick in arrival order, and only then answers. So the queue the gate
sees holds every request already read, not just the one being served.

Outcomes are exported through the ``admission_*`` metrics and the
server's :meth:`~repro.core.zltp.server.ZltpServer.capability_snapshot`
load dict, so discovery ranking (:func:`repro.core.discovery.rank_records`)
routes new sessions around saturated servers.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.obs.metrics import record_admission, record_admission_queue_depth


class AdmissionController:
    """A load-shedding gate for one logical ZLTP server.

    Attributes:
        deadline_seconds: the per-request deadline the gate protects —
            the server-side estimate of what clients ship with their
            requests (a deployment-wide public constant).
        max_queue_depth: hard cap on admitted-and-unfinished queries,
            independent of timing estimates (a bound for the cold-start
            window before the EWMA has seen any service times).
        ewma_alpha: weight of the newest observation in the service-time
            EWMA (0 < alpha <= 1; higher = faster adaptation).
    """

    def __init__(self, deadline_seconds: float = 2.0,
                 max_queue_depth: int = 64,
                 ewma_alpha: float = 0.2,
                 initial_service_seconds: float = 0.0):
        if deadline_seconds <= 0:
            raise ReproError("admission deadline must be positive")
        if max_queue_depth < 1:
            raise ReproError("max_queue_depth must be >= 1")
        if not 0 < ewma_alpha <= 1:
            raise ReproError("ewma_alpha must be in (0, 1]")
        if initial_service_seconds < 0:
            raise ReproError("initial_service_seconds cannot be negative")
        self.deadline_seconds = float(deadline_seconds)
        self.max_queue_depth = int(max_queue_depth)
        self.ewma_alpha = float(ewma_alpha)
        self._lock = threading.Lock()
        self._in_flight = 0  # guarded-by: _lock
        self._service_ewma = float(initial_service_seconds)  # guarded-by: _lock
        self._last_departure: Optional[float] = None  # guarded-by: _lock
        self.admitted = 0  # guarded-by: _lock
        self.shed = 0  # guarded-by: _lock
        self._clock = time.monotonic  # injectable for tests

    @property
    def queue_depth(self) -> int:
        """Queries admitted and not yet released."""
        with self._lock:
            return self._in_flight

    @property
    def service_seconds_estimate(self) -> float:
        """The current per-query service-time EWMA (0.0 before any
        observation)."""
        with self._lock:
            return self._service_ewma

    def try_admit(self, n: int = 1) -> Optional[str]:
        """Admit ``n`` queries, or explain (publicly) why not.

        Returns ``None`` on admission — the caller *must* balance it with
        one :meth:`release` for the same ``n`` — or a short public detail
        string for the ``ErrorMessage("overload")`` reply on shed. The
        detail names only aggregate load (depth, estimate), never
        anything about the request.
        """
        if n < 1:
            raise ReproError("cannot admit a non-positive batch")
        with self._lock:
            depth_after = self._in_flight + n
            if self._in_flight == 0:
                # Idle gate: always admit (see the module docstring —
                # this is what lets an inflated estimate self-correct).
                # A busy period starts here, so the inter-departure
                # clock restarts too.
                self._in_flight = depth_after
                self.admitted += n
                self._last_departure = self._clock()
                detail = None
            elif depth_after > self.max_queue_depth:
                self.shed += n
                detail = (f"queue depth {self._in_flight}+{n} exceeds "
                          f"{self.max_queue_depth}")
            elif self._service_ewma > 0.0 and \
                    depth_after * self._service_ewma > self.deadline_seconds:
                self.shed += n
                detail = (f"estimated wait {depth_after * self._service_ewma:.3f}s "
                          f"exceeds deadline {self.deadline_seconds:g}s")
            else:
                self._in_flight = depth_after
                self.admitted += n
                detail = None
            depth = self._in_flight
        if detail is None:
            record_admission("admitted", n)
        else:
            record_admission("shed", n)
        record_admission_queue_depth(depth)
        return detail

    def release(self, n: int = 1,
                service_seconds: Optional[float] = None) -> None:
        """Balance an admit: ``n`` queries finished (however they ended).

        ``service_seconds`` is the wall *response* time of the batch
        (queueing wait included); it is spread evenly across the batch's
        queries, so batched and unbatched scans calibrate the same
        estimator. The EWMA is fed the minimum of that and the
        inter-departure time since the previous release — see the module
        docstring for why either alone over-estimates under the wrong
        regime.
        """
        if n < 1:
            raise ReproError("cannot release a non-positive batch")
        now = self._clock()
        with self._lock:
            self._in_flight = max(0, self._in_flight - n)
            per_query: Optional[float] = None
            if service_seconds is not None and service_seconds >= 0:
                per_query = float(service_seconds) / n
            if self._last_departure is not None:
                inter_departure = max(0.0, now - self._last_departure) / n
                per_query = inter_departure if per_query is None \
                    else min(per_query, inter_departure)
            self._last_departure = now
            if per_query is not None:
                if self._service_ewma == 0.0:
                    self._service_ewma = per_query
                else:
                    self._service_ewma += self.ewma_alpha * \
                        (per_query - self._service_ewma)
            depth = self._in_flight
        record_admission_queue_depth(depth)

    def load_snapshot(self) -> Dict[str, float]:
        """Aggregate load keys for the announce record's ``load`` dict.

        ``admission_queue_depth`` is the instantaneous saturation signal
        discovery ranking sorts on first; ``admission_shed`` is the
        cumulative shed count (diagnostic, not a ranking key — an idle
        server that shed long ago is not saturated *now*).
        """
        with self._lock:
            return {
                "admission_queue_depth": float(self._in_flight),
                "admission_shed": float(self.shed),
                "admission_service_seconds": float(self._service_ewma),
            }

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready gate state (stats endpoints, tests)."""
        with self._lock:
            return {
                "deadline_seconds": self.deadline_seconds,
                "max_queue_depth": self.max_queue_depth,
                "queue_depth": self._in_flight,
                "service_seconds_estimate": self._service_ewma,
                "admitted": self.admitted,
                "shed": self.shed,
            }


__all__ = ["AdmissionController"]
