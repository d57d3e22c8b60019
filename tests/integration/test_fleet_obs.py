"""Fleet observability end to end: two multiprocess servers, one
directory, one ``lightweb top``.

The acceptance scenario for PR 9: two TCP-served logical servers each
drive a :class:`~repro.pir.procpool.ProcScanPool`, announce themselves
(with their stats sidecar port) to a directory, and serve real pir2
GETs. ``lightweb top --directory`` must then render one merged fleet
snapshot whose procpool counters are nonzero and equal the sum of the
per-server scrapes — and killing one server's sidecar must render a
``DOWN`` row without failing the scrape.
"""

import json

import numpy as np
import pytest

from repro.cli.main import main
from repro.core.discovery import (
    AnnounceRecord,
    DirectoryClient,
    DirectoryServer,
)
from repro.core.zltp.client import connect_client
from repro.core.zltp.server import ZltpServer
from repro.core.zltp.eventloop import ZltpEventLoopServer
from repro.core.zltp.sockets import connect_tcp
from repro.obs.fleet import scrape_server, targets_from_records
from repro.obs.metrics import snapshot_total
from repro.pir.database import BlobDatabase
from repro.pir.procpool import ProcScanPool

DOMAIN_BITS = 4
BLOB = 32
N_GETS = 3


@pytest.fixture(scope="module")
def fleet():
    """Two announced pir2 servers with procpools, already exercised."""
    db = BlobDatabase(DOMAIN_BITS, BLOB)
    for i in range(db.n_slots):
        db.set_slot(i, bytes([i]) * BLOB)

    pools, listeners = [], []
    for party in (0, 1):
        pool = ProcScanPool(max_workers=2)
        pools.append(pool)
        server = ZltpServer(db, modes=["pir2"], party=party,
                            executor=pool, options={"prefix_bits": 1})
        listeners.append(ZltpEventLoopServer(server, stats_port=0))

    transports = [connect_tcp(*lis.address) for lis in listeners]
    client = connect_client(transports, supported_modes=["pir2"],
                            rng=np.random.default_rng(7))
    for i in range(N_GETS):
        assert client.get_slot(i) == bytes([i]) * BLOB
    client.close()

    directory = DirectoryServer()
    dclient = DirectoryClient("127.0.0.1", directory.address[1])
    for party, lis in enumerate(listeners):
        snap = lis.server.capability_snapshot()
        dclient.announce(AnnounceRecord(
            server_id=f"fleet/data/{party}/primary0", host="127.0.0.1",
            port=lis.address[1], universe="fleet", kind="data",
            party=party, modes=tuple(snap["modes"]),
            prefix_bits=snap["prefix_bits"], cost=snap["cost"],
            load=snap["load"],
            attrs={"stats_port": lis.stats.address[1]},
            ttl_seconds=None,
        ).sign())

    yield directory, dclient, listeners
    for lis in listeners:
        lis.stop()
    for pool in pools:
        pool.shutdown()
    directory.stop()


def run_cli(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


class TestFleetTop:
    def test_merged_totals_equal_sum_of_per_server_scrapes(self, fleet,
                                                           capsys):
        directory, dclient, _listeners = fleet
        rc, out = run_cli(capsys, [
            "top", "--json",
            "--directory", f"127.0.0.1:{directory.address[1]}"])
        assert rc == 0
        snap = json.loads(out)
        assert all(server["up"] for server in snap["servers"])

        merged_total = snapshot_total(snap["merged"],
                                      "procpool_scans_total")
        # Each GET fans out to 2 shards per party: nonzero by
        # construction.
        assert merged_total == 2 * N_GETS * 2

        # Independent per-server scrapes must sum to the fleet total.
        targets = targets_from_records(dclient.records())
        assert len(targets) == 2
        per_server = [
            snapshot_total(scrape_server(target).metrics,
                           "procpool_scans_total")
            for target in targets
        ]
        assert all(total > 0 for total in per_server)
        assert sum(per_server) == merged_total

    def test_table_renders_both_servers_up(self, fleet, capsys):
        directory, _dclient, _listeners = fleet
        rc, out = run_cli(capsys, [
            "top", "--directory", f"127.0.0.1:{directory.address[1]}"])
        assert rc == 0
        assert "fleet: 2 up, 0 down" in out
        assert out.count(" UP ") == 2
        for party in (0, 1):
            assert f"fleet/data/{party}/primary0" in out

    def test_stats_directory_prints_merged_exposition(self, fleet,
                                                      capsys):
        directory, _dclient, _listeners = fleet
        rc, out = run_cli(capsys, [
            "stats", "--directory", f"127.0.0.1:{directory.address[1]}"])
        assert rc == 0
        assert "# fleet: 2 up, 0 down" in out
        assert 'procpool_scans_total{' in out
        # Merged series stay attributable to their origin server.
        assert 'server="fleet/data/0/primary0"' in out
        assert 'server="fleet/data/1/primary0"' in out

    def test_trace_subcommand_renders_flight_rings(self, fleet, capsys):
        _directory, _dclient, listeners = fleet
        rc, out = run_cli(capsys, [
            "trace", "--port", str(listeners[0].stats.address[1])])
        assert rc == 0
        assert "flight recorder:" in out
        assert "zltp.session.get" in out  # the recent ring has trees

    def test_dead_sidecar_renders_down_without_failing(self, fleet,
                                                       capsys):
        # Ordered last (name + file order) so earlier all-up asserts see
        # the whole fleet; from here on server 1's sidecar is gone.
        directory, _dclient, listeners = fleet
        listeners[1].stats.stop()
        rc, out = run_cli(capsys, [
            "top", "--directory", f"127.0.0.1:{directory.address[1]}"])
        assert rc == 0
        assert "fleet: 1 up, 1 down" in out
        assert " DOWN " in out
        # The survivor's counters still merge.
        assert "worker scans 6" in out
