"""A lightweb universe served over real TCP sockets end to end."""

import numpy as np
import pytest

from repro.core.lightweb.browser import LightwebBrowser
from repro.core.lightweb.cdn import Cdn
from repro.core.lightweb.publisher import Publisher
from repro.core.zltp.modes import MODE_PIR2
from repro.core.zltp.eventloop import ZltpEventLoopServer
from repro.core.zltp.sockets import connect_tcp
from repro.core.zltp.transport import transport_pair


@pytest.fixture
def tcp_world():
    cdn = Cdn("tcp-cdn", modes=[MODE_PIR2])
    cdn.create_universe("u", data_domain_bits=10, code_domain_bits=7,
                        fetch_budget=2)
    publisher = Publisher("pub")
    site = publisher.site("sockets.example")
    site.add_page("/", "Served over real TCP. [[sockets.example/deep|go]]")
    site.add_page("/deep", {"title": "Deep", "body": "packet-level reality"})
    publisher.push(cdn, "u")

    # Expose the CDN's four logical servers (code/data x party) over TCP.
    listeners = {}
    for kind in ("code", "data"):
        for party in (0, 1):
            server = cdn._server("u", kind, party)
            listeners[(kind, party)] = ZltpEventLoopServer(server)
    yield cdn, listeners
    for listener in listeners.values():
        listener.stop()


def tcp_factory(listeners):
    """A transport factory that dials the matching TCP listener."""

    def factory(name):
        _cdn, _u, kind, party = name.rsplit("/", 3)
        transport = connect_tcp(*listeners[(kind, int(party))].address)
        # The factory contract returns (client_end, server_end); for TCP
        # the server end is managed by the listener, so hand back a dummy.
        dummy, _ = transport_pair()
        return transport, dummy

    return factory


class TestTcpDeployment:
    def test_browse_over_tcp(self, tcp_world):
        cdn, listeners = tcp_world

        # Patch connect to skip serve_transport for the dummy server end:
        # we dial the real listeners instead.
        def connect(universe_name, kind, client_modes=None,
                    transport_factory=None, rng=None):
            from repro.core.zltp.client import connect_client

            transports = [
                connect_tcp(*listeners[(kind, party)].address)
                for party in (0, 1)
            ]
            return connect_client(transports, supported_modes=client_modes,
                                  rng=rng)

        cdn.connect = connect
        browser = LightwebBrowser(rng=np.random.default_rng(0))
        browser.connect(cdn, "u")
        page = browser.visit("sockets.example")
        assert "real TCP" in page.text
        deep = browser.follow(page, 0)
        assert "packet-level reality" in deep.text
        assert browser.gets_for_last_visit()["data-get"] == 2
        browser.close()

    def test_two_browsers_share_the_deployment(self, tcp_world):
        cdn, listeners = tcp_world
        from repro.core.zltp.client import connect_client

        def connect(universe_name, kind, client_modes=None,
                    transport_factory=None, rng=None):
            transports = [
                connect_tcp(*listeners[(kind, party)].address)
                for party in (0, 1)
            ]
            return connect_client(transports, supported_modes=client_modes,
                                  rng=rng)

        cdn.connect = connect
        browsers = []
        for seed in (1, 2):
            browser = LightwebBrowser(rng=np.random.default_rng(seed))
            browser.connect(cdn, "u")
            browsers.append(browser)
        assert "real TCP" in browsers[0].visit("sockets.example").text
        assert "packet-level" in browsers[1].visit("sockets.example/deep").text
        for browser in browsers:
            browser.close()
