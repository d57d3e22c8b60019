#!/usr/bin/env python3
"""The lightweb benchmark: private GETs and page views, pir2 over TCP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload get-4k --seed 1 --seconds 30 --trace 0

Workloads (all closed loops, no think time, pir2 over the default session
core, each party in its own child process, clients in this process):

- ``get-4k``: 64 MiB of 4 KiB blobs (2^14 slots), unsharded; one client
  issues sequential keyword GETs for uniformly drawn published keys. The
  DPF (keygen and EvalAll) does most of the work.
- ``get-64k-shard8``: 64 MiB of 64 KiB blobs (2^10 slots) served with
  ``prefix_bits=3``: the front end plus 8 sub-databases through
  ``pir.sharding`` and ``pir.engine``. Scan, fan-out and framing carry it.
- ``browse-2u``: two ``LightwebBrowser`` users on their own threads visit
  pages of a published universe (64 KiB code blobs, 4 KiB data blobs,
  fetch budget 5, zipf site popularity), so the code cache gets hits and
  two sessions contend for the parties.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
set-up, measures half the window untraced and half with spans recorded
around each layer's public functions (in this process and in both
parties), and prints the per-layer split. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. The line before it records the host and inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("get-4k", "get-64k-shard8", "browse-2u")
BROWSE_USERS = 2
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
WARMUP_OPS = 3
TAIL_PERCENTILE = 90
MEMCPY_BYTES = 64 << 20
SPANS_DIR = ROOT / ".perfbench_out"


# ----------------------------------------------------------------------
# Host and process probes
# ----------------------------------------------------------------------

def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of every thread of a process, from /proc."""
    with open(f"/proc/{pid}/stat") as f:
        data = f.read()
    fields = data[data.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mib(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure_memcpy_gb_s() -> float:
    """Median host copy rate over a buffer larger than the L2 caches."""
    import numpy as np

    src = np.random.default_rng(0).integers(
        0, 2**63, size=MEMCPY_BYTES // 8, dtype=np.uint64)
    dst = np.empty_like(src)
    rates = []
    for _ in range(7):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(MEMCPY_BYTES / (time.perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def host_info() -> Dict[str, Any]:
    import numpy

    try:
        from importlib.metadata import version
        crypto_version: Optional[str] = version("cryptography")
    except Exception:  # absent package: record that, do not fail the run
        crypto_version = None
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": crypto_version,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Deployment: two party processes behind a discovery directory
# ----------------------------------------------------------------------

class Deployment:
    """Both pir2 parties, each in its own process, announced in a
    directory the clients resolve through."""

    def __init__(self, served: List[Any], trace: bool):
        from repro.cli.browse import DirectoryCdnProxy
        from repro.core.discovery import (
            AnnounceRecord,
            CachingResolver,
            InProcessDirectory,
        )

        from perfbench.inputs import FETCH_BUDGET
        from perfbench.party import PartyProcess

        self.parties: List[Any] = []
        try:
            self.parties = [PartyProcess(p, trace) for p in (0, 1)]
            for party in self.parties:
                party.load(served)
            for party in self.parties:
                party.wait_ready()
        except BaseException:
            self.close()
            raise
        prefix_bits = {s.kind: s.prefix_bits for s in served}
        directory = InProcessDirectory()
        for party in self.parties:
            for kind, (host, port) in party.addresses.items():
                directory.announce(AnnounceRecord(
                    server_id=f"perfbench/{kind}/{party.party}",
                    host=host, port=port, universe="main", kind=kind,
                    party=party.party, modes=("pir2",),
                    prefix_bits=prefix_bits[kind],
                    attrs={"fetch_budget": FETCH_BUDGET},
                ).sign())
        self.proxy = DirectoryCdnProxy(CachingResolver(directory),
                                       universe_name="main")

    @property
    def pids(self) -> List[int]:
        return [party.pid for party in self.parties]

    def cpu_seconds(self) -> float:
        return sum(proc_cpu_seconds(pid) for pid in self.pids)

    def peak_rss_mib(self) -> float:
        return sum(proc_peak_rss_mib(pid) for pid in self.pids)

    def set_trace(self, enabled: bool) -> None:
        for party in self.parties:
            party.set_trace(enabled)

    def close(self) -> None:
        for party in self.parties:
            party.stop()


# ----------------------------------------------------------------------
# Users: one closed-loop client each
# ----------------------------------------------------------------------

class Tally:
    """One user's outcomes over a window."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.attempted = 0
        self.errors = 0
        self.sheds = 0
        self.wrong = 0
        self.shape = 0
        self.failed = 0
        self.up_bytes = 0
        self.down_bytes = 0
        self.code_gets = 0
        self.data_gets = 0
        self.cache_hits = 0

    def record(self, latency: float, up: int, down: int, ok: bool,
               shaped: bool) -> None:
        """Account one completed op; a wrong answer or a shape violation
        fails it."""
        self.latencies.append(latency)
        self.up_bytes += up
        self.down_bytes += down
        self.wrong += not ok
        self.shape += not shaped
        self.failed += not (ok and shaped)


def timed_op(recorder: Any, call: Any, arg: Any) -> tuple:
    """Run one op, inside an ``op`` span while tracing; return
    ``(result, seconds)``."""
    t0 = time.perf_counter()
    if recorder is not None and recorder.enabled:
        sp = recorder.begin("op")
        try:
            result = call(arg)
        finally:
            recorder.end(sp)
    else:
        result = call(arg)
    return result, time.perf_counter() - t0


class WireShape:
    """Shared reference for the zero-leakage shape checks: every op of
    the same class must move exactly the same bytes up and down."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reference: Dict[Any, tuple] = {}

    def check(self, cls: Any, up: int, down: int) -> bool:
        with self._lock:
            ref = self._reference.setdefault(cls, (up, down))
        return ref == (up, down)


class GetUser:
    """Sequential keyword GETs against the data store."""

    def __init__(self, inputs: Any, deployment: Deployment,
                 shape: WireShape):
        self.inputs = inputs
        self.shape = shape
        self.client = deployment.proxy.connect(
            "main", "data", client_modes=["pir2"])
        self.next = 0

    def warm_up(self) -> None:
        for key in self.inputs.queries[-WARMUP_OPS:]:
            if self.client.get(key) != self.inputs.records[key]:
                raise RuntimeError("wrong record during warm-up")

    def step(self, tally: Tally, recorder: Any) -> None:
        key = self.inputs.queries[self.next % len(self.inputs.queries)]
        self.next += 1
        up0, down0 = self.client.bytes_sent, self.client.bytes_received
        value, latency = timed_op(recorder, self.client.get, key)
        up = self.client.bytes_sent - up0
        down = self.client.bytes_received - down0
        tally.record(latency, up, down, value == self.inputs.records[key],
                     self.shape.check("get", up, down))

    def close(self) -> None:
        self.client.close()


def shows_page(page: Any, expected: str) -> bool:
    """Whether a rendered page is the published one. A page longer than a
    data blob is published in linked parts: its view shows the first part
    and links to the next."""
    if page.notes:
        return False
    if page.text == expected:
        return True
    return (len(page.text) < len(expected) and expected.startswith(page.text)
            and any(kind == "next" for _, kind in page.links))


class BrowseUser:
    """One browser visiting its own zipf visit sequence."""

    def __init__(self, inputs: Any, deployment: Deployment,
                 shape: WireShape, user: int, seed: int):
        import numpy as np
        from repro.core.lightweb.browser import LightwebBrowser

        self.inputs = inputs
        self.shape = shape
        self.visits = inputs.visits[user]
        self.browser = LightwebBrowser(rng=np.random.default_rng([seed, user]))
        self.browser.connect(deployment.proxy, "main", client_modes=["pir2"])
        self.seen_domains: set = set()
        self.next = 0

    def warm_up(self) -> None:
        self.browser.dummy_page_view()

    def step(self, tally: Tally, recorder: Any) -> None:
        path = self.visits[self.next % len(self.visits)]
        self.next += 1
        domain = path.split("/", 1)[0]
        up0, down0 = self.browser.bytes_sent, self.browser.bytes_received
        logged = len(self.browser.network_log)
        page, latency = timed_op(recorder, self.browser.visit, path)
        up = self.browser.bytes_sent - up0
        down = self.browser.bytes_received - down0
        gets = {"code-get": 0, "data-get": 0}
        for event in self.browser.network_log[logged:]:
            gets[event["kind"]] += 1
        cold = domain not in self.seen_domains
        self.seen_domains.add(domain)
        tally.record(
            latency, up, down,
            ok=shows_page(page, self.inputs.expected_text[path]),
            shaped=gets["data-get"] == self.inputs.fetch_budget
            and gets["code-get"] == int(cold)
            and self.shape.check(("page", gets["code-get"]), up, down))
        tally.code_gets += gets["code-get"]
        tally.data_gets += gets["data-get"]
        tally.cache_hits += gets["code-get"] == 0

    def close(self) -> None:
        self.browser.close()


def drive(users: List[Any], seconds: float, recorder: Any) -> tuple:
    """Run every user closed-loop until ``seconds`` have passed.

    An op that starts before the deadline runs to completion; the window
    ends when the last one does. Returns ``(tallies, window_seconds)``.
    """
    from repro.errors import OverloadError, ReproError, TransportError

    tallies = [Tally() for _ in users]
    start = time.perf_counter()
    deadline = start + seconds

    def loop(user: Any, tally: Tally) -> None:
        while time.perf_counter() < deadline:
            tally.attempted += 1
            try:
                user.step(tally, recorder)
            except OverloadError:
                tally.sheds += 1
                tally.failed += 1
            except TransportError:
                # The session is gone; this user stops.
                tally.errors += 1
                tally.failed += 1
                traceback.print_exc(file=sys.stderr)
                return
            except (ReproError, OSError):
                tally.errors += 1
                tally.failed += 1
                traceback.print_exc(file=sys.stderr)
            except Exception:
                # A benchmark-side fault: record it and stop this user
                # rather than lose the other users' window.
                tally.errors += 1
                tally.failed += 1
                traceback.print_exc(file=sys.stderr)
                return

    threads = [threading.Thread(target=loop, args=(u, t), daemon=True)
               for u, t in zip(users, tallies)]
    for thread in threads:
        thread.start()
    for thread in threads:
        while thread.is_alive():
            thread.join(1.0)
    return tallies, time.perf_counter() - start


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

class Workload:
    """Seeded inputs, the deployment and connected users for one run."""

    def __init__(self, name: str, seed: int, scale: str, trace: bool):
        self.name = name
        self.seed = seed
        self.scale = scale
        self.trace = trace
        self.inputs: Any = None
        self.deployment: Optional[Deployment] = None
        self.users: List[Any] = []
        self.shape = WireShape()

    def set_up(self) -> float:
        """Build the databases, start the parties, connect, warm up."""
        from perfbench.inputs import build_browse_inputs, build_get_inputs

        t0 = time.perf_counter()
        if self.name == "browse-2u":
            self.inputs = build_browse_inputs(self.seed, self.scale,
                                              BROWSE_USERS)
        else:
            self.inputs = build_get_inputs(self.name, self.seed, self.scale)
        self.deployment = Deployment(self.inputs.served, self.trace)
        self.users = self.new_users()
        for user in self.users:
            user.warm_up()
        return time.perf_counter() - t0

    def new_users(self) -> List[Any]:
        if self.name == "browse-2u":
            return [BrowseUser(self.inputs, self.deployment, self.shape, u,
                               self.seed) for u in range(BROWSE_USERS)]
        return [GetUser(self.inputs, self.deployment, self.shape)]

    def close_users(self) -> None:
        users, self.users = self.users, []
        for user in users:
            try:
                user.close()
            except Exception:  # teardown must reach the parties regardless
                traceback.print_exc(file=sys.stderr)

    def tear_down(self) -> None:
        self.close_users()
        if self.deployment is not None:
            self.deployment.close()
            self.deployment = None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _merge(tallies: List[Tally]) -> Tally:
    total = Tally()
    for t in tallies:
        total.latencies.extend(t.latencies)
        for attr in ("attempted", "errors", "sheds", "wrong", "shape",
                     "failed", "up_bytes", "down_bytes", "code_gets",
                     "data_gets", "cache_hits"):
            setattr(total, attr, getattr(total, attr) + getattr(t, attr))
    return total


def percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(total: Tally, window: float, setup_times: List[float],
               server_cpu: float, client_cpu: float,
               peak_rss: float) -> Dict[str, Dict[str, Any]]:
    ops = len(total.latencies)
    lat = sorted(total.latencies)
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, TAIL_PERCENTILE) * 1e3, "ms"),
        "throughput_ops_s": ((total.attempted - total.failed) / window,
                             "ops/s"),
        "server_cpu_ms_per_op": (server_cpu / ops * 1e3, "ms"),
        "client_cpu_ms_per_op": (client_cpu / ops * 1e3, "ms"),
        "up_bytes_per_op": (total.up_bytes / ops, "bytes"),
        "down_bytes_per_op": (total.down_bytes / ops, "bytes"),
        "server_peak_rss_mib": (peak_rss, "MiB"),
        "ok_frac": ((total.attempted - total.failed) / total.attempted,
                    "fraction"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def measure_window(workload: Workload, seconds: float,
                   recorder: Any = None) -> Dict[str, Any]:
    deployment = workload.deployment
    cpu0, client0 = deployment.cpu_seconds(), self_cpu_seconds()
    tallies, window = drive(workload.users, seconds, recorder)
    cpu1, client1 = deployment.cpu_seconds(), self_cpu_seconds()
    total = _merge(tallies)
    if not total.latencies:
        raise RuntimeError("no op completed in the window")
    return {"total": total, "window": window, "server_cpu": cpu1 - cpu0,
            "client_cpu": client1 - client0}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def run(args) -> Dict[str, Any]:
    from perfbench.inputs import database_bytes

    memcpy = measure_memcpy_gb_s()
    info: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "host": host_info(), "memcpy_gb_s": memcpy,
        "tail_percentile": TAIL_PERCENTILE,
    }
    workload = Workload(args.workload, args.seed, args.scale,
                        trace=bool(args.trace))
    try:
        if args.trace:
            result = run_traced(workload, args, memcpy, info)
        else:
            setup_times = []
            for repeat in range(SETUP_REPEATS):
                setup_times.append(workload.set_up())
                print(f"perfbench: set-up {repeat + 1}/{SETUP_REPEATS} "
                      f"{setup_times[-1]:.3f}s parties "
                      f"{workload.deployment.pids}", file=sys.stderr,
                      flush=True)
                if repeat + 1 < SETUP_REPEATS:
                    workload.tear_down()
            window = measure_window(workload, args.seconds)
            total = window["total"]
            metrics = end_to_end(total, window["window"], setup_times,
                                 window["server_cpu"], window["client_cpu"],
                                 workload.deployment.peak_rss_mib())
            info.update({
                "setup_repeats_s": setup_times,
                "window_s": window["window"],
                "samples": {
                    "latency": len(total.latencies),
                    "tail_beyond": sum(
                        1 for x in total.latencies
                        if x * 1e3 > metrics["latency_p90_ms"]["value"]),
                    "setup": len(setup_times),
                    "cpu_windows": 1,
                },
                "database_bytes": database_bytes(workload.inputs.served),
                "errors": total.errors, "sheds": total.sheds,
                "wrong": total.wrong, "shape_violations": total.shape,
            })
            result = {
                "correct": total.wrong == 0 and total.shape == 0,
                "attempted": total.attempted,
                "failed": total.failed,
                "metrics": metrics,
            }
        if args.workload == "browse-2u":
            info["universe"] = {"sites": workload.inputs.n_sites,
                                "pages": workload.inputs.n_pages,
                                "cold_share": workload.inputs.cold_share}
    finally:
        workload.tear_down()
    print(json.dumps({"perfbench_info": info}, sort_keys=True))
    return result


def run_traced(workload: Workload, args, memcpy: float,
               info: Dict[str, Any]) -> Dict[str, Any]:
    """Untraced half-window, then a traced half-window on fresh users."""
    from perfbench.layers import layer_metrics
    from perfbench.spans import Recorder, install_client

    recorder = Recorder()
    install_client(recorder)
    setup = workload.set_up()
    half = args.seconds / 2.0
    untraced = measure_window(workload, half)
    workload.close_users()
    workload.users = workload.new_users()
    workload.deployment.set_trace(True)
    recorder.enabled = True
    traced = measure_window(workload, half, recorder)
    recorder.enabled = False
    workload.deployment.set_trace(False)
    client_spans = recorder.drain()
    party_spans = [party.spans() for party in workload.deployment.parties]
    metrics, checks = layer_metrics(
        client_spans, party_spans, traced["total"], untraced["total"],
        memcpy)
    SPANS_DIR.mkdir(exist_ok=True)
    out = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(out, "w") as f:
        json.dump({"client": client_spans, "party0": party_spans[0],
                   "party1": party_spans[1]}, f)
    total = _merge([untraced["total"], traced["total"]])
    info.update({"setup_s": setup, "spans_file": str(out.relative_to(ROOT)),
                 "samples": {"untraced": len(untraced["total"].latencies),
                             "traced": len(traced["total"].latencies)},
                 "trace_checks": checks})
    return {
        "correct": total.wrong == 0 and total.shape == 0
        and checks["unjoined_requests"] == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy shrinks every database (for the "
                             "benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: the repro package (src/repro) is missing",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        result = run(args)
    except KeyboardInterrupt:
        print("perfbench: interrupted; parties stopped", file=sys.stderr)
        return 130
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
