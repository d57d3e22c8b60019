"""One pir2 party in its own process, as in a deployment.

The parent starts each party through :class:`PartyProcess`, as a plain
child interpreter running this file. The party receives its databases over
a socket pair (nothing else about the workload), serves each one on its own
listener through the default session core, and then obeys a small command
loop: toggle span recording, hand over spans, stop. If the parent goes away
the socket reaches EOF and the party stops serving.

The child is started with :mod:`subprocess` rather than
:mod:`multiprocessing`: a ``spawn`` context starts a resource-tracker
process that outlives the benchmark by a moment, and every process the
benchmark starts must have ended when it exits.
"""

from __future__ import annotations

import signal
import socket
import subprocess
import sys
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Seconds the parent waits for any single reply from a party.
REPLY_TIMEOUT = 120.0


def _serve(conn, party: int, trace: bool) -> None:
    # The parent owns shutdown: a terminal's Ctrl-C reaches the whole
    # process group, and the party must still stop in order.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.core.zltp.serving import create_tcp_server
    from repro.core.zltp.server import ZltpServer
    from repro.pir.database import BlobDatabase

    from perfbench.spans import Recorder, install_party

    recorder = Recorder()
    if trace:
        install_party(recorder)
    config = conn.recv()
    listeners = []
    try:
        addresses: Dict[str, Any] = {}
        for spec in config["dbs"]:
            words = (spec["blob_size"] + 7) // 8
            storage = np.empty((1 << spec["domain_bits"], words), np.uint64)
            conn.recv_bytes_into(storage.reshape(-1).view(np.uint8))
            database = BlobDatabase.view_over(storage, spec["blob_size"])
            options = ({"prefix_bits": spec["prefix_bits"]}
                       if spec["prefix_bits"] else None)
            server = ZltpServer(database, modes=["pir2"], party=party,
                                salt=spec["salt"], probes=spec["probes"],
                                options=options)
            listener = create_tcp_server(None, server)
            listeners.append(listener)
            addresses[spec["kind"]] = tuple(listener.address)
        conn.send(addresses)
        while True:
            try:
                command, arg = conn.recv()
            except EOFError:
                return
            if command == "trace":
                recorder.enabled = bool(arg)
                conn.send("ok")
            elif command == "spans":
                conn.send(recorder.drain())
            elif command == "stop":
                return
    finally:
        for listener in listeners:
            listener.stop()
        conn.close()


class PartyProcess:
    """Parent-side handle on one party process."""

    def __init__(self, party: int, trace: bool):
        self.party = party
        parent, child = socket.socketpair()
        try:
            # The party's standard output goes to standard error: the
            # benchmark's own last stdout line must be its result.
            self.process = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 str(child.fileno()), str(party), str(int(trace))],
                pass_fds=[child.fileno()], stdin=subprocess.DEVNULL,
                stdout=sys.stderr, cwd=ROOT)
        except BaseException:
            parent.close()
            raise
        finally:
            child.close()
        self.conn = Connection(parent.detach())
        self.pid = self.process.pid
        self.addresses: Dict[str, tuple] = {}

    def _reply(self):
        if not self.conn.poll(REPLY_TIMEOUT):
            raise RuntimeError(f"party {self.party} did not reply")
        return self.conn.recv()

    def load(self, served: List[Any]) -> None:
        """Send the databases' geometry, hello parameters and storage."""
        self.conn.send({"dbs": [
            {"kind": s.kind, "domain_bits": s.database.domain_bits,
             "blob_size": s.database.blob_size, "salt": s.salt,
             "probes": s.probes, "prefix_bits": s.prefix_bits}
            for s in served]})
        for s in served:
            self.conn.send_bytes(s.database.packed_words().reshape(-1)
                                 .view(np.uint8))

    def wait_ready(self) -> None:
        """Block until the party has bound a listener per database."""
        self.addresses = self._reply()

    def set_trace(self, enabled: bool) -> None:
        self.conn.send(("trace", enabled))
        self._reply()

    def spans(self) -> List[list]:
        self.conn.send(("spans", None))
        return self._reply()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop serving and reap the process; kill it if it lingers."""
        try:
            if self.process.poll() is None:
                self.conn.send(("stop", None))
        except (OSError, ValueError):
            pass
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.conn.close()


__all__ = ["PartyProcess", "REPLY_TIMEOUT"]


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    _serve(Connection(int(sys.argv[1])), int(sys.argv[2]),
           bool(int(sys.argv[3])))

