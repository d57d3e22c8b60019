"""Metrics registry: counters, gauges, and fixed-bucket histograms.

One process-wide :data:`REGISTRY` collects the repo's operational
numbers — queries served per mode, bytes up/down, scan-engine fan-outs,
scan-latency distributions — and snapshots them as JSON
(:meth:`MetricsRegistry.as_dict`) or a Prometheus-style text exposition
(:meth:`MetricsRegistry.render_text`) for the ``lightweb stats``
subcommand and the TCP stats endpoint.

Two zero-leakage properties are structural here, not conventions:

* **Histogram buckets are fixed a priori.** A histogram that adapted its
  bucket boundaries to observed values would encode the distribution of
  client behaviour into the exposition format itself — boundary values
  become a side channel. Buckets are chosen once, at declaration time,
  from public engineering knowledge only.
* **Label values must be public.** The ``telemetry-leak`` analyzer rule
  flags any ``inc``/``set``/``observe``/``labels`` call whose arguments
  are secret-tainted, so a per-label-value series can never be keyed by
  a client secret (which would turn series cardinality into a query
  log).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Default latency buckets (seconds) — fixed a priori; see module docstring.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """Monotonically increasing per-label-set totals."""

    kind = "counter"

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[LabelKey, float] = {}  # guarded-by: _lock

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ReproError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            series = [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ]
        return {"kind": self.kind, "help": self.help, "series": series}

    def render_text(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} counter"]
        with self._lock:
            for key, value in sorted(self._series.items()):
                lines.append(f"{self.name}{_render_labels(key)} {value:g}")
        return lines


class Gauge:
    """A value that can go up and down (queue depth, worker count)."""

    kind = "gauge"

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[LabelKey, float] = {}  # guarded-by: _lock

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            series = [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ]
        return {"kind": self.kind, "help": self.help, "series": series}

    def render_text(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} gauge"]
        with self._lock:
            for key, value in sorted(self._series.items()):
                lines.append(f"{self.name}{_render_labels(key)} {value:g}")
        return lines


class Histogram:
    """Fixed-boundary histogram with Prometheus ``le`` (≤) semantics.

    A value equal to a boundary lands in that boundary's bucket; values
    above the last boundary land in the implicit +Inf overflow bucket.
    Boundaries are immutable after construction (see module docstring
    for why data-dependent buckets are forbidden).
    """

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS):
        if not buckets:
            raise ReproError(f"histogram {name} needs at least one bucket")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ReproError(
                f"histogram {name} buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.bounds = bounds
        self._lock = threading.Lock()
        # Per label-set: [bucket counts (+overflow)], sum, count.
        self._series: Dict[LabelKey, Dict[str, Any]] = {}  # guarded-by: _lock

    def observe(self, value: float, **labels: Any) -> None:
        v = float(value)
        # le semantics: bisect_left puts v == bound into bound's bucket;
        # index == len(bounds) is the +Inf overflow bucket.
        idx = bisect_left(self.bounds, v)
        key = _label_key(labels)
        with self._lock:
            cell = self._series.get(key)
            if cell is None:
                cell = {"counts": [0] * (len(self.bounds) + 1),
                        "sum": 0.0, "count": 0}
                self._series[key] = cell
            cell["counts"][idx] += 1
            cell["sum"] += v
            cell["count"] += 1

    def snapshot(self, **labels: Any) -> Dict[str, Any]:
        """Bucket counts, sum, and count for one label set."""
        with self._lock:
            cell = self._series.get(_label_key(labels))
            if cell is None:
                return {"counts": [0] * (len(self.bounds) + 1),
                        "sum": 0.0, "count": 0}
            return {"counts": list(cell["counts"]),
                    "sum": cell["sum"], "count": cell["count"]}

    def merge_cells(self, series: Sequence[Dict[str, Any]]) -> None:
        """Add snapshot series cells into this histogram's live counts.

        Callers must have validated the bucket layout against
        :attr:`bounds`; cells whose count arrays disagree in length are
        rejected here as a backstop.
        """
        for cell in series:
            counts = cell["counts"]
            if len(counts) != len(self.bounds) + 1:
                raise ReproError(
                    f"cannot merge histogram {self.name}: cell has "
                    f"{len(counts)} buckets, expected {len(self.bounds) + 1}")
            key = _label_key(dict(cell["labels"]))
            with self._lock:
                mine = self._series.get(key)
                if mine is None:
                    mine = {"counts": [0] * (len(self.bounds) + 1),
                            "sum": 0.0, "count": 0}
                    self._series[key] = mine
                mine["counts"] = [a + b for a, b in zip(mine["counts"], counts)]
                mine["sum"] += cell["sum"]
                mine["count"] += cell["count"]

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            series = [
                {
                    "labels": dict(key),
                    "counts": list(cell["counts"]),
                    "sum": cell["sum"],
                    "count": cell["count"],
                }
                for key, cell in sorted(self._series.items())
            ]
        return {
            "kind": self.kind,
            "help": self.help,
            "buckets": list(self.bounds),
            "series": series,
        }

    def render_text(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} histogram"]
        with self._lock:
            for key, cell in sorted(self._series.items()):
                cumulative = 0
                for bound, n in zip(self.bounds, cell["counts"]):
                    cumulative += n
                    le = _render_labels(key, f'le="{bound:g}"')
                    lines.append(f"{self.name}_bucket{le} {cumulative}")
                cumulative += cell["counts"][-1]
                le = _render_labels(key, 'le="+Inf"')
                lines.append(f"{self.name}_bucket{le} {cumulative}")
                lines.append(
                    f"{self.name}_sum{_render_labels(key)} {cell['sum']:g}")
                lines.append(
                    f"{self.name}_count{_render_labels(key)} {cell['count']}")
        return lines


def _blank_series_cell(kind: str, buckets: Optional[List[float]]) -> Any:
    if kind == "histogram":
        return {"counts": [0] * (len(buckets or []) + 1), "sum": 0.0,
                "count": 0}
    return 0.0


def merge_into(dst: Dict[str, Any], src: Dict[str, Any]) -> Dict[str, Any]:
    """Fold one registry snapshot into another, in place.

    Snapshots are the JSON-ready form :meth:`MetricsRegistry.snapshot`
    returns — the same dicts ``/metrics.json`` serves — so the parent
    process merging worker snapshots and ``lightweb top`` merging fleet
    scrapes run the exact same code. Semantics per kind:

    * **counter / gauge**: per-label-set values are summed (a fleet
      gauge like active sessions is an aggregate across servers, so the
      sum *is* the fleet value).
    * **histogram**: bucket-wise count sums plus ``sum``/``count`` sums.
      Two histograms with different bucket layouts are rejected loudly
      (:class:`~repro.errors.ReproError`) — silently realigning buckets
      would fabricate a distribution nobody measured.

    A metric present in only one snapshot is copied through; merging an
    empty snapshot is the identity.

    Raises:
        ReproError: on a kind mismatch or a histogram bucket-layout
            mismatch for the same metric name.
    """
    for name, metric in src.items():
        into = dst.get(name)
        if into is None:
            dst[name] = {
                "kind": metric["kind"],
                "help": metric.get("help", ""),
                **({"buckets": list(metric["buckets"])}
                   if metric["kind"] == "histogram" else {}),
                "series": [dict(cell, labels=dict(cell["labels"]))
                           for cell in metric.get("series", [])],
            }
            continue
        if into["kind"] != metric["kind"]:
            raise ReproError(
                f"cannot merge metric {name}: kind {metric['kind']} vs "
                f"{into['kind']}")
        if metric["kind"] == "histogram" and \
                list(into.get("buckets", [])) != list(metric.get("buckets", [])):
            raise ReproError(
                f"cannot merge histogram {name}: bucket layouts differ "
                f"({into.get('buckets')} vs {metric.get('buckets')})")
        by_labels = {_label_key(cell["labels"]): cell
                     for cell in into["series"]}
        for cell in metric.get("series", []):
            key = _label_key(cell["labels"])
            mine = by_labels.get(key)
            if mine is None:
                mine = {"labels": dict(cell["labels"])}
                if metric["kind"] == "histogram":
                    mine.update(_blank_series_cell("histogram",
                                                   metric.get("buckets")))
                else:
                    mine["value"] = 0.0
                into["series"].append(mine)
                by_labels[key] = mine
            if metric["kind"] == "histogram":
                if len(mine["counts"]) != len(cell["counts"]):
                    raise ReproError(
                        f"cannot merge histogram {name}: bucket counts "
                        f"differ in length")
                mine["counts"] = [a + b for a, b in zip(mine["counts"],
                                                        cell["counts"])]
                mine["sum"] += cell["sum"]
                mine["count"] += cell["count"]
            else:
                mine["value"] += cell["value"]
        into["series"].sort(key=lambda cell: _label_key(cell["labels"]))
    return dst


def merge_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge registry snapshots into one (see :func:`merge_into`)."""
    merged: Dict[str, Any] = {}
    for snap in snapshots:
        merge_into(merged, snap)
    return merged


def relabel_snapshot(snap: Dict[str, Any], **labels: Any) -> Dict[str, Any]:
    """A copy of ``snap`` with fixed labels added to every series.

    This is how cross-process aggregation stays attributable: the parent
    stamps each worker's snapshot with ``worker=<index>`` (and a fleet
    scraper could stamp ``server=<id>``) before merging, so the merged
    view still breaks down by origin. Label *names* must come from a
    fixed a-priori set (worker index, server id — deployment topology,
    never request contents); the ``telemetry-leak`` rule applies to
    relabels exactly as it does to ``inc``/``observe`` calls.
    """
    fixed = {k: str(v) for k, v in labels.items()}
    out: Dict[str, Any] = {}
    for name, metric in snap.items():
        copied = {k: (list(v) if isinstance(v, list) else v)
                  for k, v in metric.items() if k != "series"}
        copied["series"] = [
            dict(cell, labels={**dict(cell["labels"]), **fixed})
            for cell in metric.get("series", [])
        ]
        out[name] = copied
    return out


def render_snapshot_text(snap: Dict[str, Any]) -> str:
    """Prometheus-style text exposition of a snapshot dict.

    The registry's own :meth:`MetricsRegistry.render_text` renders live
    instruments; this renders the *snapshot* form, so merged views (a
    parent registry plus worker snapshots, or a whole scraped fleet)
    expose identically to a single process.
    """
    lines: List[str] = []
    for name, metric in sorted(snap.items()):
        lines.append(f"# HELP {name} {metric.get('help', '')}")
        lines.append(f"# TYPE {name} {metric['kind']}")
        series = sorted(metric.get("series", []),
                        key=lambda cell: _label_key(cell["labels"]))
        if metric["kind"] == "histogram":
            bounds = metric.get("buckets", [])
            for cell in series:
                key = _label_key(cell["labels"])
                cumulative = 0
                for bound, n in zip(bounds, cell["counts"]):
                    cumulative += n
                    le = _render_labels(key, f'le="{bound:g}"')
                    lines.append(f"{name}_bucket{le} {cumulative}")
                cumulative += cell["counts"][-1]
                le = _render_labels(key, 'le="+Inf"')
                lines.append(f"{name}_bucket{le} {cumulative}")
                lines.append(f"{name}_sum{_render_labels(key)} {cell['sum']:g}")
                lines.append(
                    f"{name}_count{_render_labels(key)} {cell['count']}")
        else:
            for cell in series:
                labels = _render_labels(_label_key(cell["labels"]))
                lines.append(f"{name}{labels} {cell['value']:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_total(snap: Dict[str, Any], name: str,
                   field: str = "value") -> float:
    """Sum one metric's series across every label set in a snapshot.

    For counters/gauges ``field`` is ``"value"``; for histograms pass
    ``"sum"`` (total observed seconds) or ``"count"`` (observations).
    Missing metrics total 0.0 — load derivation must not fail on a
    server that has not scanned yet.
    """
    metric = snap.get(name)
    if metric is None:
        return 0.0
    return float(sum(cell.get(field, 0.0)
                     for cell in metric.get("series", [])))


class MetricsRegistry:
    """Named collection of metrics with get-or-create declaration.

    Re-declaring a name returns the existing instrument if the kind
    matches (so modules can declare at import or first use without
    ordering constraints) and raises if it does not.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}  # guarded-by: _lock

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ReproError(
                        f"metric {name} already registered as {existing.kind}")
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot of every registered metric."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.as_dict() for name, metric in sorted(metrics)}

    def snapshot(self) -> Dict[str, Any]:
        """The registry's mergeable snapshot (see :func:`merge_into`).

        Identical to :meth:`as_dict` — named separately because this is
        the cross-process wire format: workers flush it over their
        result pipe, parents merge it, and fleet scrapers merge whole
        servers' worth of it.
        """
        return self.as_dict()

    def merge(self, snap: Dict[str, Any]) -> None:
        """Fold a snapshot's series into this registry's live instruments.

        Counters/gauges are bumped by the snapshot's per-label-set
        values; histograms get their bucket counts added cell-wise.
        Mismatched kinds or bucket layouts are rejected loudly, exactly
        like :func:`merge_into`.

        Raises:
            ReproError: on kind or bucket-layout mismatch.
        """
        for name, metric in snap.items():
            kind = metric.get("kind")
            if kind == "counter":
                counter = self.counter(name, metric.get("help", ""))
                for cell in metric.get("series", []):
                    counter.inc(cell["value"], **dict(cell["labels"]))
            elif kind == "gauge":
                gauge = self.gauge(name, metric.get("help", ""))
                for cell in metric.get("series", []):
                    gauge.add(cell["value"], **dict(cell["labels"]))
            elif kind == "histogram":
                hist = self.histogram(name, metric.get("help", ""),
                                      buckets=metric.get(
                                          "buckets",
                                          DEFAULT_SECONDS_BUCKETS))
                if list(hist.bounds) != list(metric.get("buckets", [])):
                    raise ReproError(
                        f"cannot merge histogram {name}: bucket layouts "
                        f"differ ({list(hist.bounds)} vs "
                        f"{metric.get('buckets')})")
                hist.merge_cells(metric.get("series", []))
            else:
                raise ReproError(
                    f"cannot merge metric {name}: unknown kind {kind!r}")

    def render_text(self) -> str:
        """Prometheus-style text exposition of every registered metric."""
        with self._lock:
            metrics = list(self._metrics.items())
        lines: List[str] = []
        for _, metric in sorted(metrics):
            lines.extend(metric.render_text())
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every metric (test isolation)."""
        with self._lock:
            self._metrics.clear()


#: Process-wide default registry, exposed by ``lightweb stats``.
REGISTRY = MetricsRegistry()


def record_request_stats(mode: str, delta, registry: Optional[MetricsRegistry] = None) -> None:
    """Fold one per-request ``RequestStats`` delta into the registry.

    Called by the ZLTP server at the protocol layer — the single point
    where every backend's per-request accounting already flows — so the
    registry view and ``ScanExecutor.backend_report()`` reconcile by
    construction. ``mode`` is a public wire identifier.
    """
    reg = registry if registry is not None else REGISTRY
    reg.counter(
        "zltp_queries_total", "PIR queries answered, by backend mode",
    ).inc(delta.queries, mode=mode)
    reg.counter(
        "zltp_bytes_up_total", "Request payload bytes received, by mode",
    ).inc(delta.bytes_up, mode=mode)
    reg.counter(
        "zltp_bytes_down_total", "Answer payload bytes sent, by mode",
    ).inc(delta.bytes_down, mode=mode)
    reg.histogram(
        "zltp_scan_seconds", "Server-side answer wall time, by mode",
    ).observe(delta.scan_seconds, mode=mode)


def record_fanout(tasks: int, wall_seconds: float, busy_seconds: float,
                  registry: Optional[MetricsRegistry] = None) -> None:
    """Record one scan-engine fan-out (task count and wall/busy time)."""
    reg = registry if registry is not None else REGISTRY
    reg.counter(
        "engine_fanouts_total", "Parallel fan-outs dispatched by ScanExecutor",
    ).inc(1)
    reg.counter(
        "engine_tasks_total", "Tasks executed across all fan-outs",
    ).inc(tasks)
    reg.histogram(
        "engine_fanout_wall_seconds", "Wall time per fan-out",
    ).observe(wall_seconds)
    reg.counter(
        "engine_busy_seconds_total", "Summed worker busy time across fan-outs",
    ).inc(busy_seconds)


def record_retry(layer: str,
                 registry: Optional[MetricsRegistry] = None) -> None:
    """Count one retry attempt at a resilience layer.

    ``layer`` is a public structural label (``"transport"``,
    ``"engine"``, ``"browser"``) — never derived from request contents;
    retries are triggered only by public failure events.
    """
    reg = registry if registry is not None else REGISTRY
    reg.counter(
        "resilience_retries_total", "Retry attempts, by resilience layer",
    ).inc(1, layer=layer)


def record_reconnect(outcome: str,
                     registry: Optional[MetricsRegistry] = None) -> None:
    """Count one transport reconnection attempt's outcome.

    ``outcome`` is one of the fixed labels ``"ok"``, ``"failed"``, or
    ``"deadline"`` — public connection-level events only.
    """
    reg = registry if registry is not None else REGISTRY
    reg.counter(
        "transport_reconnects_total", "Transport reconnections, by outcome",
    ).inc(1, outcome=outcome)


def record_failover(layer: str,
                    registry: Optional[MetricsRegistry] = None) -> None:
    """Count one failover to a sibling endpoint or worker."""
    reg = registry if registry is not None else REGISTRY
    reg.counter(
        "resilience_failovers_total", "Failovers to a sibling, by layer",
    ).inc(1, layer=layer)


def record_announce(outcome: str,
                    registry: Optional[MetricsRegistry] = None) -> None:
    """Count one directory announce by outcome.

    ``outcome`` is one of the fixed labels ``"ok"``, ``"rejected"``
    (signature failure), or ``"stale"`` (generation raced backwards) —
    control-plane events about public server topology only.
    """
    reg = registry if registry is not None else REGISTRY
    reg.counter(
        "discovery_announces_total", "Directory announces, by outcome",
    ).inc(1, outcome=outcome)


def record_resolve(source: str, seconds: Optional[float] = None,
                   registry: Optional[MetricsRegistry] = None) -> None:
    """Count one capability resolve by where the answer came from.

    ``source`` is one of the fixed labels ``"directory"`` (live answer),
    ``"cache"`` (directory down, TTL-grace fallback), or ``"failed"``
    (no answer at all). Queries are structural — universe/kind/mode —
    never per-fetch, so nothing here can key on what a client is reading.
    """
    reg = registry if registry is not None else REGISTRY
    reg.counter(
        "discovery_resolves_total", "Capability resolves, by answer source",
    ).inc(1, source=source)
    if seconds is not None:
        reg.histogram(
            "discovery_resolve_seconds", "Wall time per capability resolve",
        ).observe(seconds)


def record_rediscovery(registry: Optional[MetricsRegistry] = None) -> None:
    """Count one pool refresh that re-resolved endpoints via discovery
    (every pooled candidate was dead and the directory supplied more)."""
    reg = registry if registry is not None else REGISTRY
    reg.counter(
        "discovery_rediscoveries_total",
        "Endpoint pools refreshed by re-resolving through discovery",
    ).inc(1)


def record_truncated_frame(registry: Optional[MetricsRegistry] = None) -> None:
    """Count one connection that died mid-frame (a partial frame was
    left in its decoder).

    A connection-level event — nothing about frame *contents* is
    recorded, only that a stream ended on a frame boundary violation.
    """
    reg = registry if registry is not None else REGISTRY
    reg.counter(
        "zltp_truncated_frames_total",
        "Connections that closed with a partial frame buffered",
    ).inc(1)


def record_admission(outcome: str, n: int = 1,
                     registry: Optional[MetricsRegistry] = None) -> None:
    """Count ``n`` queries through the admission gate by outcome.

    ``outcome`` is one of the fixed labels ``"admitted"`` or ``"shed"``
    — a decision driven only by aggregate queue depth and service-time
    estimates, never by request contents.
    """
    reg = registry if registry is not None else REGISTRY
    reg.counter(
        "admission_requests_total",
        "Queries through the admission gate, by outcome",
    ).inc(n, outcome=outcome)


def record_admission_queue_depth(depth: int,
                                 registry: Optional[MetricsRegistry] = None
                                 ) -> None:
    """Gauge the admission gate's admitted-and-unfinished query count."""
    reg = registry if registry is not None else REGISTRY
    reg.gauge(
        "admission_queue_depth",
        "Queries admitted and not yet finished",
    ).set(depth)


def record_active_sessions(delta: int,
                           registry: Optional[MetricsRegistry] = None) -> None:
    """Move the live ZLTP session gauge by ``delta`` (+1 on accept, -1
    on teardown).

    Every listener adds its own changes, so the gauge reads the process
    total however many listeners share the registry. The count is
    aggregate concurrency, never anything per-session.
    """
    reg = registry if registry is not None else REGISTRY
    reg.gauge(
        "zltp_active_sessions", "Live ZLTP sessions in this process",
    ).add(delta)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_SECONDS_BUCKETS",
    "merge_into",
    "merge_snapshots",
    "relabel_snapshot",
    "render_snapshot_text",
    "snapshot_total",
    "record_request_stats",
    "record_fanout",
    "record_retry",
    "record_reconnect",
    "record_failover",
    "record_announce",
    "record_resolve",
    "record_rediscovery",
    "record_truncated_frame",
    "record_admission",
    "record_admission_queue_depth",
    "record_active_sessions",
]
