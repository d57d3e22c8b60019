"""A short constructor for the one TCP session core.

:class:`~repro.core.zltp.eventloop.ZltpEventLoopServer` is how a
:class:`~repro.core.zltp.server.ZltpServer` goes on a socket; code in this
package builds it directly. :func:`create_tcp_server` stays for callers
that pass the core as a leading argument.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.zltp.eventloop import ZltpEventLoopServer
from repro.core.zltp.server import ZltpServer
from repro.errors import ReproError


def create_tcp_server(core: Optional[str], server: ZltpServer,
                      **kwargs: Any) -> ZltpEventLoopServer:
    """``ZltpEventLoopServer(server, **kwargs)``; ``core`` must be None.

    Raises:
        ReproError: when ``core`` names anything, since the reactor is
            the only session core.
    """
    if core is not None:
        raise ReproError(
            f"unknown session core {core!r}: the event-loop reactor is "
            "the only one")
    return ZltpEventLoopServer(server, **kwargs)


__all__ = ["create_tcp_server"]
