"""``lightweb stats`` — read a deployment's observability snapshot.

Fetches the stats exposition a :class:`~repro.core.zltp.sockets.
StatsTcpServer` serves (``lightweb serve --stats-port``, or the
``stats_port`` argument of :class:`~repro.core.zltp.eventloop.
ZltpEventLoopServer`) and prints it: the Prometheus-style text form by
default, or the raw JSON snapshot with ``--json``.

With ``--directory HOST:PORT`` the single-server scrape becomes a fleet
scrape: every announced server with a stats sidecar is scraped
concurrently and the merged exposition is printed (``lightweb top``
renders the same scrape as a per-server table instead).
"""

from __future__ import annotations

import json
from typing import Optional

from repro.cli.console import emit
from repro.errors import DiscoveryError, TransportError
from repro.obs.fleet import http_get


def fetch_stats(host: str, port: int, as_json: bool = False,
                timeout: Optional[float] = 10.0) -> str:
    """GET the stats endpoint and return the response body.

    Raises:
        TransportError: on connection failure, a malformed response, or
            a non-200 status — a sidecar's 500 (a raising snapshot) is
            an error, not an exposition.
    """
    path = "/metrics.json" if as_json else "/metrics"
    return http_get(host, port, path, timeout=timeout)


def _fleet_stats(args) -> int:
    """The ``--directory`` path: scrape the whole announced fleet."""
    from repro.cli.top import directory_fleet_snapshot
    from repro.obs.metrics import render_snapshot_text

    try:
        fleet = directory_fleet_snapshot(
            args.directory, secret=args.directory_secret,
            timeout=args.timeout)
    except (TransportError, DiscoveryError, ValueError) as exc:
        emit(f"stats error: {exc}")
        return 1
    if args.json:
        emit(json.dumps(fleet.as_dict(), indent=2))
        return 0
    emit(f"# fleet: {fleet.up_count} up, {fleet.down_count} down")
    for scrape in fleet.scrapes:
        if not scrape.up:
            emit(f"# DOWN {scrape.target.server_id} "
                 f"({scrape.target.host}:{scrape.target.port}): "
                 f"{scrape.error}")
    emit(render_snapshot_text(fleet.merged).rstrip("\n"))
    return 0


def cmd_stats(args) -> int:
    """Entry point for ``lightweb stats``."""
    if getattr(args, "directory", None):
        return _fleet_stats(args)
    if args.port is None:
        emit("stats error: --port is required without --directory")
        return 1
    try:
        body = fetch_stats(args.host, args.port, as_json=args.json)
    except TransportError as exc:
        emit(f"stats error: {exc}")
        return 1
    emit(body.rstrip("\n"))
    return 0


__all__ = ["fetch_stats", "cmd_stats"]
